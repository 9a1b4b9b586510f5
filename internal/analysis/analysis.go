// Package analysis is hidestore's project-specific static-analysis
// framework ("hidelint"). It exists because PR 1 fixed three
// silent-corruption classes by hand — an ignored context.Context in the
// restore path, FileStore.IDs swallowing ReadDir errors into an
// empty-store lie, and a store-ownership violation in MemStore.Put — and
// the paper's restore-performance numbers (speed factor = MB restored
// per container read, §5.3) are only meaningful if error surfacing stays
// exact. Those invariants are enforced here mechanically, as named checks
// with file:line diagnostics, instead of by reviewer vigilance. Container
// reads need no check: the restore driver (internal/backup) owns the only
// store-backed fetcher a restore reads through.
//
// The framework is intentionally stdlib-only (go/parser, go/ast,
// go/types, go/importer): the lint gate must run anywhere the module
// builds, with no module downloads.
//
// Findings are suppressed per line with
//
//	//hidelint:ignore <check> <reason>
//
// where the reason is mandatory — a suppression without one is itself a
// diagnostic. The comment silences matching findings on its own line
// (trailing form) or on the line directly below (standalone form).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned at the offending token.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Config tunes path-dependent checks. The zero value is not useful;
// call DefaultConfig for the project policy.
type Config struct {
	// CtxPackages lists import-path suffixes of the packages where the
	// ignored-ctx check demands context plumbing on exported I/O entry
	// points.
	CtxPackages []string
	// LibraryExemptDirs lists path elements (e.g. "cmd", "examples")
	// whose packages are binaries: exempt from no-panic/no-print.
	LibraryExemptDirs []string
	// OwnershipCustodianPackages lists import-path suffixes of the
	// packages that legitimately share read-only *Container snapshots
	// through fields and channels (the restore cache/prefetch layers and
	// the container store itself). The store-ownership escape rules
	// (field store, channel send, composite literal) do not fire inside
	// them; the mutation rules still do.
	OwnershipCustodianPackages []string
	// Interprocedural turns on the whole-module pass: a call graph with
	// bottom-up per-function summaries feeds transitive-I/O detection in
	// ignored-ctx, and cross-call escape/mutation tracking in
	// store-ownership and pooled-escape (plus their flow-sensitive CFG
	// halves).
	Interprocedural bool
	// ReportUnusedSuppressions turns on the -unused-suppressions mode:
	// every well-formed //hidelint:ignore directive that silenced no
	// finding of the checks that ran becomes an "unused-suppression"
	// diagnostic. Directives naming checks outside the selected set are
	// never reported — a partial run cannot prove them stale.
	ReportUnusedSuppressions bool
}

// DefaultConfig is the policy for the hidestore tree.
func DefaultConfig() Config {
	return Config{
		CtxPackages: []string{
			"internal/core",
			"internal/dedup",
			"internal/backup",
			"internal/restorecache",
			"internal/container",
		},
		LibraryExemptDirs: []string{"cmd", "examples"},
		OwnershipCustodianPackages: []string{
			"internal/restorecache",
			"internal/container",
		},
		Interprocedural: true,
	}
}

// Pass carries one type-checked package through a check.
type Pass struct {
	Fset   *token.FileSet
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info
	Config Config
	// Prog is the whole-module call-graph/summary view, nil unless
	// Config.Interprocedural is set. Checks that can use it degrade to
	// their intraprocedural behavior when it is nil.
	Prog *Program

	diags *[]Diagnostic
	check string
}

// Reportf records a finding at pos under the running check's name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// PathHasSuffix reports whether the package import path ends in one of
// the given slash-separated suffixes (element-aligned, so
// "internal/core" matches "hidestore/internal/core" but not
// "hidestore/internal/corekit").
func PathHasSuffix(path string, suffixes []string) bool {
	for _, suf := range suffixes {
		if path == suf || strings.HasSuffix(path, "/"+suf) {
			return true
		}
	}
	return false
}

// InDirElement reports whether the file's path contains dir as a path
// element (e.g. "cmd" matches cmd/bench/main.go).
func InDirElement(filename string, dirs []string) bool {
	for _, el := range strings.Split(filepath.ToSlash(filepath.Dir(filename)), "/") {
		for _, d := range dirs {
			if el == d {
				return true
			}
		}
	}
	return false
}

// Check is one named invariant.
type Check struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

var registry []Check

// register adds a check; called from each check's init.
func register(c Check) {
	for _, existing := range registry {
		if existing.Name == c.Name {
			//hidelint:ignore no-panic init-time registration bug in this tool itself; unreachable once the package compiles and starts
			panic("analysis: duplicate check " + c.Name)
		}
	}
	registry = append(registry, c)
}

// Checks returns the registered checks sorted by name.
func Checks() []Check {
	out := append([]Check(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CheckNames returns the registered names sorted.
func CheckNames() []string {
	var names []string
	for _, c := range Checks() {
		names = append(names, c.Name)
	}
	return names
}

func checkByName(name string) (Check, bool) {
	for _, c := range registry {
		if c.Name == name {
			return c, true
		}
	}
	return Check{}, false
}

// Run executes the named checks (all registered checks if names is
// empty) over the loaded packages and returns the surviving
// diagnostics, sorted by position, after applying suppressions. An
// unknown check name is an error.
func Run(pkgs []*Package, names []string, cfg Config) ([]Diagnostic, error) {
	var checks []Check
	if len(names) == 0 {
		checks = Checks()
	} else {
		for _, n := range names {
			c, ok := checkByName(n)
			if !ok {
				return nil, fmt.Errorf("analysis: unknown check %q (have %s)", n, strings.Join(CheckNames(), ", "))
			}
			checks = append(checks, c)
		}
	}
	var diags []Diagnostic
	var sup suppressions
	for _, pkg := range pkgs {
		sup.collect(pkg.Fset, pkg.Files, &diags)
	}
	var prog *Program
	if cfg.Interprocedural {
		prog = buildProgram(pkgs)
	}
	for _, pkg := range pkgs {
		for _, c := range checks {
			pass := &Pass{
				Fset:   pkg.Fset,
				Files:  pkg.Files,
				Pkg:    pkg.Types,
				Info:   pkg.Info,
				Config: cfg,
				Prog:   prog,
				diags:  &diags,
				check:  c.Name,
			}
			c.Run(pass)
		}
	}
	diags = sup.filter(diags)
	if cfg.ReportUnusedSuppressions {
		diags = append(diags, sup.unused(checks)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags, nil
}
