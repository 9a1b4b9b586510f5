package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package, ready for checks.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages with a shared FileSet and a
// shared source importer, so type identities agree across packages
// (the store-ownership and ignored-ctx checks compare against the
// container.Store interface loaded through imports, and the
// interprocedural Program compares receiver types across packages).
type Loader struct {
	Fset *token.FileSet
	imp  types.Importer
	// loaded caches every package this Loader has type-checked, keyed by
	// import path, and overrides the source importer for them. Each
	// module package must be checked exactly once — a second copy from
	// go/build would give structurally identical but non-identical types
	// and break cross-package Implements checks. It also serves the
	// golden corpora: the go tool refuses to resolve import paths under
	// testdata/, so a corpus importing its sibling helper package works
	// by loading the helper through LoadDir first.
	loaded map[string]*Package
	// modPath/modRoot, set by LoadModule, let Import resolve
	// module-internal paths by recursively LoadDir-ing them instead of
	// consulting go/build, keeping one copy per package regardless of
	// load order.
	modPath string
	modRoot string
}

// NewLoader returns a Loader backed by the stdlib source importer,
// which resolves external import paths through go/build.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:   fset,
		imp:    importer.ForCompiler(fset, "source", nil),
		loaded: make(map[string]*Package),
	}
}

// Import implements types.Importer: already-loaded packages first, then
// module-internal paths via a recursive LoadDir, then the source
// importer for everything external.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.loaded[path]; ok {
		return p.Types, nil
	}
	if l.modPath != "" && (path == l.modPath || strings.HasPrefix(path, l.modPath+"/")) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		dir := filepath.Join(l.modRoot, filepath.FromSlash(rel))
		if ok, err := hasGoFiles(dir); err == nil && ok {
			p, err := l.LoadDir(dir, path)
			if err != nil {
				return nil, err
			}
			return p.Types, nil
		}
	}
	return l.imp.Import(path)
}

// LoadModule walks the module rooted at root (its go.mod names the
// module path), loading every non-test package. testdata, vendor,
// dot/underscore directories and nested modules (a directory with its
// own go.mod, e.g. benchmark/) are skipped, as all Go tooling does.
func (l *Loader) LoadModule(root string) ([]*Package, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l.modPath = modPath
	l.modRoot = root
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if path != root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		ok, err := hasGoFiles(path)
		if err != nil {
			return err
		}
		if ok {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: walk %s: %w", root, err)
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, importPath)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir parses the non-test Go files in dir and type-checks them as
// the package with the given import path. A path this Loader has
// already checked returns the cached package.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.loaded[importPath]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: read %s: %w", dir, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", importPath, err)
	}
	p := &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.loaded[importPath] = p
	return p, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true, nil
		}
	}
	return false, nil
}
