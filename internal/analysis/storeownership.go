package analysis

import (
	"go/ast"
	"go/types"
)

func init() {
	register(Check{
		Name: "store-ownership",
		Doc: "Store.Put must snapshot: a Put implementation may not retain the " +
			"caller's *Container directly (the PR 1 MemStore bug). Containers " +
			"returned by Store.Get / Fetcher.Get are shared snapshots: callers may " +
			"not mutate them (Add, Remove, SetCapacity, or field writes), " +
			"pass them to a callee that does, or — outside the custodian " +
			"packages — let them escape through a field, channel, or composite " +
			"literal. With -interprocedural the mutation rule is flow-sensitive: " +
			"a mutation above a `ctn = ctn.Clone()` rebind on some path is caught.",
		Run: runStoreOwnership,
	})
}

// containerMutators are the *Container methods that modify the image.
var containerMutators = map[string]bool{
	"Add": true, "Remove": true, "SetCapacity": true,
}

func runStoreOwnership(pass *Pass) {
	store := containerStoreInterface(pass.Pkg)
	if store == nil {
		return
	}
	funcDecls(pass.Files, func(_ *ast.File, decl *ast.FuncDecl) {
		checkPutRetention(pass, decl, store)
		if pass.Prog != nil {
			checkGetMutationFlow(pass, decl)
		} else {
			checkGetMutation(pass, decl)
		}
	})
}

// checkPutRetention flags Put implementations that store the caller's
// container pointer instead of a snapshot.
func checkPutRetention(pass *Pass, decl *ast.FuncDecl, store *types.Interface) {
	if decl.Name.Name != "Put" || decl.Recv == nil || len(decl.Recv.List) == 0 {
		return
	}
	recvTV, ok := pass.Info.Types[decl.Recv.List[0].Type]
	if !ok || !implementsStore(recvTV.Type, store) {
		return
	}
	// The *Container parameters whose ownership stays with the caller.
	params := make(map[types.Object]bool)
	for _, field := range decl.Type.Params.List {
		tv, ok := pass.Info.Types[field.Type]
		if !ok || !isContainerPtr(tv.Type) {
			continue
		}
		for _, name := range field.Names {
			if obj := pass.Info.Defs[name]; obj != nil {
				params[obj] = true
			}
		}
	}
	if len(params) == 0 {
		return
	}
	isParam := func(expr ast.Expr) bool {
		id, ok := ast.Unparen(expr).(*ast.Ident)
		if !ok {
			return false
		}
		obj := pass.Info.Uses[id]
		return obj != nil && params[obj]
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range assign.Rhs {
			if i >= len(assign.Lhs) {
				break
			}
			// Retention = the bare parameter lands in a field, map, or
			// slice of the receiver (x.f = c, x.m[k] = c, append targets).
			retained := isParam(rhs)
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltin(pass.Info, call, "append") {
				for _, arg := range call.Args[1:] {
					if isParam(arg) {
						retained = true
					}
				}
			}
			if !retained {
				continue
			}
			if _, plainLocal := ast.Unparen(assign.Lhs[i]).(*ast.Ident); plainLocal {
				continue // a local alias is fine until it is retained
			}
			pass.Reportf(rhs.Pos(), "Put retains the caller's *Container; snapshot it (Clone or marshal) before storing")
		}
		return true
	})
}

// checkGetMutation flags mutation of containers obtained from a
// Store.Get / Fetcher.Get: those images are shared with the store and
// with concurrent restores.
func checkGetMutation(pass *Pass, decl *ast.FuncDecl) {
	// Objects bound to the *Container result of a method named Get.
	shared := make(map[types.Object]bool)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 || len(assign.Lhs) == 0 {
			return true
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(pass.Info, call)
		if f == nil || f.Name() != "Get" {
			return true
		}
		sig, ok := f.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || sig.Results().Len() == 0 {
			return true
		}
		if !isContainerPtr(sig.Results().At(0).Type()) {
			return true
		}
		if id, ok := assign.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.Info.Defs[id]; obj != nil {
				shared[obj] = true
			} else if obj := pass.Info.Uses[id]; obj != nil {
				shared[obj] = true
			}
		}
		return true
	})
	if len(shared) == 0 {
		return
	}
	// A variable rebound to anything but the Get call (typically
	// `ctn = ctn.Clone()`) no longer aliases the store's snapshot; drop
	// it rather than flow-track, at the cost of missing mutations that
	// precede the rebind.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || assign.Tok.String() != "=" {
			return true
		}
		isGetCall := func(expr ast.Expr) bool {
			call, ok := ast.Unparen(expr).(*ast.CallExpr)
			if !ok {
				return false
			}
			f := calleeFunc(pass.Info, call)
			return f != nil && f.Name() == "Get"
		}
		for i, lhs := range assign.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.Info.Uses[id]
			if obj == nil || !shared[obj] {
				continue
			}
			if len(assign.Rhs) == 1 && isGetCall(assign.Rhs[0]) {
				continue // re-fetch keeps it shared
			}
			if i < len(assign.Rhs) && isGetCall(assign.Rhs[i]) {
				continue
			}
			delete(shared, obj)
		}
		return true
	})
	if len(shared) == 0 {
		return
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				if _, plain := ast.Unparen(lhs).(*ast.Ident); plain {
					continue // rebinding the variable is not a mutation
				}
				if obj := identObject(pass.Info, lhs); obj != nil && shared[obj] {
					pass.Reportf(lhs.Pos(), "write through a container obtained from Get; Get results are shared read-only snapshots")
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(node.Fun).(*ast.SelectorExpr)
			if !ok || !containerMutators[sel.Sel.Name] {
				return true
			}
			f, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			sig, ok := f.Type().(*types.Signature)
			if !ok || sig.Recv() == nil || !isContainerPtr(sig.Recv().Type()) {
				return true
			}
			if obj := identObject(pass.Info, sel.X); obj != nil && shared[obj] {
				pass.Reportf(node.Pos(), "%s mutates a container obtained from Get; Clone it first (Get results are shared)", sel.Sel.Name)
			}
		}
		return true
	})
}

// Shared-container dataflow lattice bits: a variable may alias the
// store's shared snapshot, a private clone, or (after a merge) either.
const (
	ctnShared  uint8 = 1 << iota // aliases a Get result
	ctnPrivate                   // rebound to a clone or other value
)

// checkGetMutationFlow is the interprocedural, flow-sensitive version
// of checkGetMutation. Shared origins include module functions
// summarized as returning a Get result; sinks include callees
// summarized as mutating their *Container parameter, channel sends,
// and field stores (outside the custodian packages). The CFG makes the
// mutation rule order-aware: `ctn.Add(...)` above `ctn = ctn.Clone()`
// is caught even though an AST-order pass would see the rebind first.
// Bodies using goto fall back to the flow-insensitive check.
func checkGetMutationFlow(pass *Pass, decl *ast.FuncDecl) {
	graph := buildCFG(decl.Body)
	if !graph.ok {
		checkGetMutation(pass, decl)
		return
	}
	prog := pass.Prog
	info := pass.Info
	custodian := PathHasSuffix(pass.Pkg.Path(), pass.Config.OwnershipCustodianPackages)

	sharedOrigin := func(expr ast.Expr) bool {
		call, ok := ast.Unparen(expr).(*ast.CallExpr)
		return ok && prog.isSharedOriginCall(info, call)
	}
	// Does any shared origin exist at all? Skip the dataflow otherwise.
	any := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if any {
			return false
		}
		if assign, ok := n.(*ast.AssignStmt); ok && len(assign.Rhs) == 1 && sharedOrigin(assign.Rhs[0]) {
			any = true
		}
		return true
	})
	if !any {
		return
	}

	bindObj := func(id *ast.Ident) types.Object {
		if obj := info.Defs[id]; obj != nil {
			return obj
		}
		return info.Uses[id]
	}
	transfer := func(state flowState, n ast.Node) {
		cfgInspect(n, func(nn ast.Node) bool {
			assign, ok := nn.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range assign.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := bindObj(id)
				if obj == nil || !isContainerPtr(obj.Type()) {
					continue
				}
				shared := false
				if len(assign.Rhs) == 1 {
					shared = sharedOrigin(assign.Rhs[0])
				} else if i < len(assign.Rhs) {
					shared = sharedOrigin(assign.Rhs[i])
				}
				if shared {
					state[obj] = ctnShared
				} else {
					state[obj] = ctnPrivate
				}
			}
			return true
		})
	}

	sharedState := func(state flowState, expr ast.Expr) (uint8, bool) {
		obj := identObject(info, expr)
		if obj == nil {
			return 0, false
		}
		st := state[obj]
		return st, st&ctnShared != 0
	}
	somePath := func(st uint8) string {
		if st&ctnPrivate != 0 {
			return " on some control-flow path"
		}
		return ""
	}
	report := func(state flowState, n ast.Node) {
		cfgInspect(n, func(nn ast.Node) bool {
			switch node := nn.(type) {
			case *ast.AssignStmt:
				for i, lhs := range node.Lhs {
					if _, plain := ast.Unparen(lhs).(*ast.Ident); plain {
						// Rebinding is not a mutation, but a shared container on
						// the RHS landing in a field/map/slice is an escape.
						continue
					}
					if st, shared := sharedState(state, lhs); shared {
						pass.Reportf(lhs.Pos(), "write through a container obtained from Get%s; Get results are shared read-only snapshots", somePath(st))
					}
					_ = i
				}
				if !custodian {
					for i, rhs := range node.Rhs {
						if i >= len(node.Lhs) {
							break
						}
						if _, plain := ast.Unparen(node.Lhs[i]).(*ast.Ident); plain {
							continue
						}
						if id, ok := ast.Unparen(rhs).(*ast.Ident); ok {
							if st, shared := sharedState(state, id); shared {
								pass.Reportf(rhs.Pos(), "container obtained from Get escapes into a field, map, or slice%s; far-side mutation is invisible — Clone it first", somePath(st))
							}
						}
					}
				}
			case *ast.SendStmt:
				if custodian {
					return true
				}
				if id, ok := ast.Unparen(node.Value).(*ast.Ident); ok {
					if st, shared := sharedState(state, id); shared {
						pass.Reportf(node.Value.Pos(), "container obtained from Get sent on a channel%s; the far side shares the snapshot — Clone before sending", somePath(st))
					}
				}
			case *ast.CompositeLit:
				if custodian {
					return true
				}
				for _, elt := range node.Elts {
					v := elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						v = kv.Value
					}
					if id, ok := ast.Unparen(v).(*ast.Ident); ok {
						if st, shared := sharedState(state, id); shared {
							pass.Reportf(v.Pos(), "container obtained from Get placed in a composite literal%s; the copy shares the snapshot — Clone it first", somePath(st))
						}
					}
				}
			case *ast.CallExpr:
				f := calleeFunc(info, node)
				if f == nil {
					return true
				}
				// Direct mutator on a shared container.
				if sel, ok := ast.Unparen(node.Fun).(*ast.SelectorExpr); ok && containerMutators[sel.Sel.Name] {
					if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil && isContainerPtr(sig.Recv().Type()) {
						if st, shared := sharedState(state, sel.X); shared {
							pass.Reportf(node.Pos(), "%s mutates a container obtained from Get%s; Clone it first (Get results are shared)", sel.Sel.Name, somePath(st))
						}
					}
				}
				// Shared container handed to a callee that mutates it.
				if callee, ok := prog.Graph.Nodes[f]; ok {
					cs := prog.Summaries[callee.Func]
					for i, arg := range node.Args {
						id, ok := ast.Unparen(arg).(*ast.Ident)
						if !ok {
							continue
						}
						st, shared := sharedState(state, id)
						if !shared {
							continue
						}
						ci := calleeParamIndex(f, i)
						if ci >= 0 && ci < len(cs.mutatesParam) && cs.mutatesParam[ci] {
							pass.Reportf(arg.Pos(), "container obtained from Get passed to %s, which mutates its parameter%s; Clone it first", f.Name(), somePath(st))
						}
					}
				}
			}
			return true
		})
	}
	graph.forwardDataflow(transfer, report)
}
