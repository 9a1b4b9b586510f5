package analysis

import (
	"go/ast"
	"go/types"
)

func init() {
	register(Check{
		Name: "ignored-ctx",
		Doc: "context plumbing in the core I/O packages must be real: a ctx " +
			"parameter is first, named, and referenced; library code never mints " +
			"context.Background/TODO; exported functions that perform I/O accept a " +
			"context (Store implementations are the documented ctx-free seam — " +
			"cancellation enters via restorecache.Fetcher).",
		Run: runIgnoredCtx,
	})
}

// storeMethodNames is the container.Store method set (plus the
// Quarantiner extension): implementations of the ctx-free Store seam
// are exempt from the ctx-on-I/O rule.
var storeMethodNames = map[string]bool{
	"Put": true, "Get": true, "Delete": true, "Has": true,
	"IDs": true, "Len": true, "Quarantine": true,
}

// osIOFuncs are package-os entry points that hit the filesystem.
var osIOFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true, "Stat": true,
	"Remove": true, "RemoveAll": true, "Rename": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
}

// ioIOFuncs are package-io helpers that drive reads/writes.
var ioIOFuncs = map[string]bool{
	"Copy": true, "CopyN": true, "CopyBuffer": true,
	"ReadAll": true, "ReadFull": true, "WriteString": true,
}

// netIOFuncs are package-net entry points that open or accept
// connections — network I/O with no deadline unless a ctx carries one.
var netIOFuncs = map[string]bool{
	"Dial": true, "DialTimeout": true, "DialUDP": true, "DialTCP": true,
	"Listen": true, "ListenPacket": true, "ListenTCP": true, "ListenUDP": true,
}

func runIgnoredCtx(pass *Pass) {
	inCtxPkg := PathHasSuffix(pass.Pkg.Path(), pass.Config.CtxPackages)
	store := containerStoreInterface(pass.Pkg)

	funcDecls(pass.Files, func(_ *ast.File, decl *ast.FuncDecl) {
		checkCtxParams(pass, decl, inCtxPkg)
		if inCtxPkg {
			checkIOWithoutCtx(pass, decl, store)
		}
	})

	if !inCtxPkg {
		return
	}
	// Library layers receive their context; minting one severs
	// cancellation from the caller — exactly the PR 1 restore-path bug.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := calleeFunc(pass.Info, call)
			if f != nil && f.Pkg() != nil && f.Pkg().Path() == "context" &&
				(f.Name() == "Background" || f.Name() == "TODO") {
				pass.Reportf(call.Pos(), "context.%s in library code severs caller cancellation; accept a ctx instead", f.Name())
			}
			return true
		})
	}
}

// checkCtxParams enforces position and use of declared ctx parameters.
func checkCtxParams(pass *Pass, decl *ast.FuncDecl, inCtxPkg bool) {
	var ctxIdents []*ast.Ident
	paramIndex := 0
	for _, field := range decl.Type.Params.List {
		names := field.Names
		if len(names) == 0 {
			names = []*ast.Ident{nil} // unnamed parameter
		}
		for _, name := range names {
			tv, ok := pass.Info.Types[field.Type]
			if ok && isContextType(tv.Type) {
				if paramIndex != 0 {
					pos := field.Type.Pos()
					if name != nil {
						pos = name.Pos()
					}
					pass.Reportf(pos, "context.Context must be the first parameter of %s", decl.Name.Name)
				}
				if name != nil {
					ctxIdents = append(ctxIdents, name)
				}
			}
			paramIndex++
		}
	}
	for _, id := range ctxIdents {
		if id.Name == "_" {
			if inCtxPkg && decl.Name.IsExported() {
				pass.Reportf(id.Pos(), "exported %s discards its context parameter", decl.Name.Name)
			}
			continue
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			continue
		}
		if !objUsed(pass.Info, decl.Body, obj) {
			pass.Reportf(id.Pos(), "context parameter %s is never used in %s; cancellation is dead here", id.Name, decl.Name.Name)
		}
	}
}

// objUsed reports whether obj is referenced anywhere under body.
func objUsed(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			used = true
			return false
		}
		return true
	})
	return used
}

// checkIOWithoutCtx flags exported functions in the core packages that
// hit the filesystem without accepting a context.
func checkIOWithoutCtx(pass *Pass, decl *ast.FuncDecl, store *types.Interface) {
	if !decl.Name.IsExported() || hasCtxParam(pass.Info, decl) {
		return
	}
	if isStoreSeamMethod(pass.Info, decl, store) {
		return
	}
	var ioPos ast.Node
	var ioName string
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if ioPos != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := directIOCall(pass.Info, call); ok {
			ioPos, ioName = call, name
			return false
		}
		return true
	})
	if ioPos != nil {
		pass.Reportf(decl.Name.Pos(), "exported %s performs I/O (%s) without accepting a context.Context", decl.Name.Name, ioName)
		return
	}
	// Interprocedural half: the body calls no os./io./net. entry point
	// itself, but a summary says one is reachable through ctx-less
	// module callees — the PR 1 restore-path bug three frames down.
	if pass.Prog == nil {
		return
	}
	fn, ok := pass.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return
	}
	if s := pass.Prog.Summaries[fn]; s != nil && s.reachesIO() {
		pass.Reportf(decl.Name.Pos(), "exported %s transitively performs I/O (%s) without accepting a context.Context", decl.Name.Name, pass.Prog.ioChain(fn))
	}
}

func hasCtxParam(info *types.Info, decl *ast.FuncDecl) bool {
	for _, field := range decl.Type.Params.List {
		if tv, ok := info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// isStoreSeamMethod reports whether decl implements part of the
// container.Store interface: the one deliberately ctx-free layer.
func isStoreSeamMethod(info *types.Info, decl *ast.FuncDecl, store *types.Interface) bool {
	if store == nil || decl.Recv == nil || len(decl.Recv.List) == 0 {
		return false
	}
	if !storeMethodNames[decl.Name.Name] {
		return false
	}
	tv, ok := info.Types[decl.Recv.List[0].Type]
	if !ok {
		return false
	}
	return implementsStore(tv.Type, store)
}

// directIOCall reports whether call is a known filesystem/stream I/O
// entry point, returning a printable name.
func directIOCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	f := calleeFunc(info, call)
	if f == nil {
		return "", false
	}
	if pkg := f.Pkg(); pkg != nil {
		switch pkg.Path() {
		case "os":
			if osIOFuncs[f.Name()] {
				return "os." + f.Name(), true
			}
		case "io":
			if ioIOFuncs[f.Name()] {
				return "io." + f.Name(), true
			}
		case "net":
			if netIOFuncs[f.Name()] {
				return "net." + f.Name(), true
			}
		}
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		if sig.Recv().Type().String() == "*os.File" {
			return "(*os.File)." + f.Name(), true
		}
	}
	return "", false
}
