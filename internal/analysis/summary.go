package analysis

import (
	"go/ast"
	"go/types"
)

// summary.go computes the per-function summaries the interprocedural
// checks consume: does the function (transitively) perform I/O, return
// a shared *Container, mutate / retain / release particular parameters.
// Summaries are computed bottom-up over the call graph's SCCs, iterating
// each SCC to a fixpoint (every bit is monotone, so the iteration
// terminates).
//
// Conservative defaults, stated once here and documented in DESIGN.md:
// interface dispatch, function values, and calls out of the load set
// have no call edge — they are assumed to perform no I/O and neither
// mutate nor retain nor release their arguments. Escapes the checks
// *can* see (fields, channels, composite literals, known-retaining
// callees) are flagged; what vanishes through an interface is the
// analysis' blind spot, not a proof of safety.

// Summary is the interprocedural fact sheet for one declared function.
type Summary struct {
	// directIO names the os./io./net. entry point called in this body
	// ("os.Open"), or "" when I/O is only reachable through callees.
	directIO string
	// ioVia is the module callee through which transitive I/O was first
	// discovered; nil when directIO != "" or no I/O is reachable.
	ioVia *types.Func

	// returnsShared: some return path yields a *Container aliasing a
	// Store.Get / Fetcher.Get result (a shared snapshot).
	returnsShared bool

	// Per-parameter facts, indexed by flat parameter position.
	mutatesParam  []bool // calls a *Container mutator / writes a field
	retainsParam  []bool // stores the param somewhere outliving the call
	releasesParam []bool // passes the param to bufpool Pool.Release
}

func (s *Summary) reachesIO() bool { return s.directIO != "" || s.ioVia != nil }

// Program is the whole-module view handed to checks when
// Config.Interprocedural is on.
type Program struct {
	Graph     *CallGraph
	Summaries map[*types.Func]*Summary

	store *types.Interface // container.Store, nil when unresolvable
}

// buildProgram constructs the call graph and runs the bottom-up summary
// computation.
func buildProgram(pkgs []*Package) *Program {
	p := &Program{
		Graph:     buildCallGraph(pkgs),
		Summaries: make(map[*types.Func]*Summary),
	}
	for _, pkg := range pkgs {
		if p.store == nil {
			p.store = containerStoreInterface(pkg.Types)
		}
	}
	for _, node := range p.Graph.Nodes {
		p.Summaries[node.Func] = &Summary{}
	}
	for _, scc := range p.Graph.SCCs {
		for changed := true; changed; {
			changed = false
			for _, node := range scc {
				if p.update(node) {
					changed = true
				}
			}
		}
	}
	return p
}

// isStoreSeamFunc reports whether fn is part of a container.Store
// implementation (the documented ctx-free seam) at the types level.
func (p *Program) isStoreSeamFunc(fn *types.Func) bool {
	if !storeMethodNames[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return implementsStore(sig.Recv().Type(), p.store)
}

// isSharedOriginCall reports whether call yields a shared *Container:
// any Get method returning one (Store.Get, Fetcher.Get, cache Gets) or
// a module function summarized as returning a shared container.
func (p *Program) isSharedOriginCall(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	if f == nil {
		return false
	}
	if s, ok := p.Summaries[f]; ok && s.returnsShared {
		return true
	}
	if f.Name() != "Get" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Results().Len() == 0 {
		return false
	}
	return isContainerPtr(sig.Results().At(0).Type())
}

// paramIndexes maps each named parameter object of decl to its flat
// position, returning the total parameter count.
func paramIndexes(info *types.Info, decl *ast.FuncDecl) (map[types.Object]int, int) {
	idx := make(map[types.Object]int)
	n := 0
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			n++
			continue
		}
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				idx[obj] = n
			}
			n++
		}
	}
	return idx, n
}

// calleeParamIndex maps argument position i of a call to f onto f's
// parameter index, folding variadic tails onto the last parameter.
// Returns -1 when the position has no parameter (e.g. f()).
func calleeParamIndex(f *types.Func, i int) int {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return -1
	}
	np := sig.Params().Len()
	if np == 0 {
		return -1
	}
	if i >= np {
		if sig.Variadic() {
			return np - 1
		}
		return -1
	}
	return i
}

func hasCtxInSig(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// update recomputes node's summary against the current summaries of its
// callees, reporting whether anything changed.
func (p *Program) update(node *FuncNode) bool {
	s := p.Summaries[node.Func]
	info := node.Pkg.Info
	paramIdx, nparams := paramIndexes(info, node.Decl)
	if s.mutatesParam == nil {
		s.mutatesParam = make([]bool, nparams)
		s.retainsParam = make([]bool, nparams)
		s.releasesParam = make([]bool, nparams)
	}
	before := snapshotSummary(s)

	paramOf := func(expr ast.Expr) int {
		id, ok := ast.Unparen(expr).(*ast.Ident)
		if !ok {
			return -1
		}
		obj := info.Uses[id]
		if obj == nil {
			return -1
		}
		if i, ok := paramIdx[obj]; ok {
			return i
		}
		return -1
	}

	// Pass 1: flow-insensitive set of variables aliasing a shared
	// container (assigned from a Get / shared-returning call).
	sharedVars := make(map[types.Object]bool)
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 || len(assign.Lhs) == 0 {
			return true
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok || !p.isSharedOriginCall(info, call) {
			return true
		}
		if id, ok := ast.Unparen(assign.Lhs[0]).(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				sharedVars[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				sharedVars[obj] = true
			}
		}
		return true
	})

	// Pass 2: everything else.
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if s.directIO == "" {
				if name, ok := directIOCall(info, x); ok {
					s.directIO = name
				}
			}
			f := calleeFunc(info, x)
			if f == nil {
				return true
			}
			// bufpool Release of a parameter.
			if len(x.Args) == 1 && isBufpoolMethod(info, x, "Release") {
				if i := paramOf(x.Args[0]); i >= 0 {
					s.releasesParam[i] = true
				}
			}
			// *Container mutator invoked on a parameter.
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && containerMutators[sel.Sel.Name] {
				if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil && isContainerPtr(sig.Recv().Type()) {
					if i := paramOf(sel.X); i >= 0 {
						s.mutatesParam[i] = true
					}
				}
			}
			callee, known := p.Graph.Nodes[f]
			if !known {
				return true
			}
			cs := p.Summaries[callee.Func]
			// Transitive I/O: cut where the callee accepts a context (the
			// cancellation point exists there) and at the Store seam.
			if s.directIO == "" && s.ioVia == nil && cs.reachesIO() &&
				!hasCtxInSig(f) && !p.isStoreSeamFunc(f) {
				s.ioVia = f
			}
			// Parameter facts propagate through identifier arguments.
			for i, arg := range x.Args {
				pi := paramOf(arg)
				if pi < 0 {
					continue
				}
				ci := calleeParamIndex(f, i)
				if ci < 0 || ci >= len(cs.mutatesParam) {
					continue
				}
				if cs.mutatesParam[ci] {
					s.mutatesParam[pi] = true
				}
				if cs.retainsParam[ci] {
					s.retainsParam[pi] = true
				}
				if cs.releasesParam[ci] {
					s.releasesParam[pi] = true
				}
			}

		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if i >= len(x.Lhs) {
					break
				}
				pi := paramOf(rhs)
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltin(info, call, "append") {
					for _, arg := range call.Args[1:] {
						if j := paramOf(arg); j >= 0 {
							pi = j
						}
					}
				}
				if pi < 0 {
					continue
				}
				if _, plain := ast.Unparen(x.Lhs[i]).(*ast.Ident); !plain {
					s.retainsParam[pi] = true // lands in a field, map, or slice
				}
			}
			// A field write through a *Container parameter is mutation.
			for _, lhs := range x.Lhs {
				if _, plain := ast.Unparen(lhs).(*ast.Ident); plain {
					continue
				}
				if obj := identObject(info, lhs); obj != nil && isContainerPtr(obj.Type()) {
					if i, ok := paramIdx[obj]; ok {
						s.mutatesParam[i] = true
					}
				}
			}

		case *ast.SendStmt:
			if i := paramOf(x.Value); i >= 0 {
				s.retainsParam[i] = true
			}

		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if i := paramOf(v); i >= 0 {
					s.retainsParam[i] = true
				}
			}

		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if call, ok := ast.Unparen(res).(*ast.CallExpr); ok && p.isSharedOriginCall(info, call) {
					s.returnsShared = true
				}
				if id, ok := ast.Unparen(res).(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil && sharedVars[obj] {
						s.returnsShared = true
					}
				}
			}
		}
		return true
	})

	return snapshotSummary(s) != before
}

// summarySnapshot is a comparable digest of a Summary's monotone bits.
type summarySnapshot struct {
	directIO      string
	ioVia         *types.Func
	returnsShared bool
	params        string
}

func snapshotSummary(s *Summary) summarySnapshot {
	buf := make([]byte, 0, 3*len(s.mutatesParam))
	bit := func(b bool) byte {
		if b {
			return '1'
		}
		return '0'
	}
	for i := range s.mutatesParam {
		buf = append(buf, bit(s.mutatesParam[i]), bit(s.retainsParam[i]), bit(s.releasesParam[i]))
	}
	return summarySnapshot{
		directIO:      s.directIO,
		ioVia:         s.ioVia,
		returnsShared: s.returnsShared,
		params:        string(buf),
	}
}

// ioChain renders the witness path from fn to its I/O call:
// "helper → flush → os.Rename". Bounded and cycle-safe.
func (p *Program) ioChain(fn *types.Func) string {
	var parts []string
	seen := map[*types.Func]bool{fn: true}
	cur := p.Summaries[fn]
	for i := 0; cur != nil && i < 10; i++ {
		if cur.directIO != "" {
			parts = append(parts, cur.directIO)
			break
		}
		next := cur.ioVia
		if next == nil || seen[next] {
			break
		}
		seen[next] = true
		parts = append(parts, next.Name())
		cur = p.Summaries[next]
	}
	return joinArrow(parts)
}

func joinArrow(parts []string) string {
	out := ""
	for i, s := range parts {
		if i > 0 {
			out += " → "
		}
		out += s
	}
	return out
}
