package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testdataImportPrefix keeps testdata package paths inside the module
// so the path-scoped checks can be aimed at them via Config.
const testdataImportPrefix = "hidestore/internal/analysis/testdata/src/"

// goldenCase wires one testdata package to the check it seeds and the
// config that aims the check at it.
type goldenCase struct {
	name   string   // testdata package and golden file stem
	checks []string // checks to run; nil = all
	deps   []string // helper packages (testdata/src-relative), loaded first
	cfg    func() Config
	// interOnly marks the corpora whose every finding needs the call
	// graph: TestInterproceduralCatchesWhatIntraMisses asserts the
	// intraprocedural pass finds NOTHING in them.
	interOnly bool
}

func goldenCases() []goldenCase {
	withCtxTestdata := func() Config {
		cfg := DefaultConfig()
		cfg.CtxPackages = append(cfg.CtxPackages, "testdata/src/ignoredctx")
		return cfg
	}
	withCtxTransitive := func() Config {
		cfg := DefaultConfig()
		cfg.CtxPackages = append(cfg.CtxPackages, "testdata/src/ctxtransitive")
		return cfg
	}
	return []goldenCase{
		{name: "discardederror", checks: []string{"discarded-error"}, cfg: DefaultConfig},
		{name: "ignoredctx", checks: []string{"ignored-ctx"}, cfg: withCtxTestdata},
		{name: "nopanic", checks: []string{"no-panic"}, cfg: DefaultConfig},
		{name: "storeownership", checks: []string{"store-ownership"}, cfg: DefaultConfig},
		{name: "pooledescape", checks: []string{"pooled-escape"}, cfg: DefaultConfig},
		{name: "suppress", checks: []string{"no-panic"}, cfg: DefaultConfig},
		{name: "unusedsuppress", checks: []string{"no-panic"}, cfg: withUnusedSuppressions},
		{name: "suppressedge", checks: []string{"no-panic"}, cfg: withUnusedSuppressions},

		// The interprocedural corpora: each seeds a defect the
		// single-function pass provably misses.
		{name: "ctxtransitive", checks: []string{"ignored-ctx"},
			deps: []string{"ctxtransitive/helper"}, cfg: withCtxTransitive, interOnly: true},
		{name: "xpkgownership", checks: []string{"store-ownership"},
			deps: []string{"xpkgownership/stamp"}, cfg: DefaultConfig, interOnly: true},
		{name: "mutbeforerebind", checks: []string{"store-ownership"}, cfg: DefaultConfig, interOnly: true},
		{name: "pooledinterproc", checks: []string{"pooled-escape"}, cfg: DefaultConfig, interOnly: true},
	}
}

// loadCase loads a golden case's packages: helper deps first, so the
// main corpus package's imports resolve to the already-checked copies.
func loadCase(t *testing.T, tc goldenCase) []*Package {
	t.Helper()
	loader := NewLoader()
	var pkgs []*Package
	for _, dep := range append(append([]string(nil), tc.deps...), tc.name) {
		pkg, err := loader.LoadDir(filepath.Join("testdata", "src", filepath.FromSlash(dep)), testdataImportPrefix+dep)
		if err != nil {
			t.Fatalf("load %s: %v", dep, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// withUnusedSuppressions turns on the -unused-suppressions mode.
func withUnusedSuppressions() Config {
	cfg := DefaultConfig()
	cfg.ReportUnusedSuppressions = true
	return cfg
}

// TestGolden seeds each defect class and asserts the exact diagnostic
// positions against the per-check golden file. Regenerate with
// `go test ./internal/analysis -run Golden -update` after reviewing
// every changed line: the goldens are the gate's regression contract.
func TestGolden(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			diags, err := Run(loadCase(t, tc), tc.checks, tc.cfg())
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			var sb strings.Builder
			for _, d := range diags {
				d.Pos.Filename = filepath.ToSlash(d.Pos.Filename)
				sb.WriteString(d.String())
				sb.WriteString("\n")
			}
			got := sb.String()
			goldenPath := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantBytes, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if want := string(wantBytes); got != want {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestGoldenFindsEveryDefectClass guards the guard: each seeded
// package must produce at least one finding for its check, so an
// accidentally-emptied golden cannot pass silently.
func TestGoldenFindsEveryDefectClass(t *testing.T) {
	for _, tc := range goldenCases() {
		data, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(strings.TrimSpace(string(data))) == 0 {
			t.Errorf("%s: golden file is empty; the seeded defects are not being caught", tc.name)
		}
	}
}

// TestInterproceduralCatchesWhatIntraMisses is the contract behind the
// interOnly corpora: every finding in their goldens needs the call
// graph, proven by running the same corpora with the same checks and
// config, minus the Program — the old single-function pass — and
// requiring silence. Together with TestGoldenFindsEveryDefectClass
// (the goldens are non-empty) this pins "the new pass catches what the
// old pass missed" from both sides.
func TestInterproceduralCatchesWhatIntraMisses(t *testing.T) {
	ran := 0
	for _, tc := range goldenCases() {
		if !tc.interOnly {
			continue
		}
		ran++
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.Interprocedural = false
			diags, err := Run(loadCase(t, tc), tc.checks, cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, d := range diags {
				t.Errorf("intraprocedural pass unexpectedly found: %s", d)
			}
		})
	}
	if ran < 4 {
		t.Fatalf("only %d interprocedural corpora; want one per upgraded invariant (4)", ran)
	}
}

func TestRunRejectsUnknownCheck(t *testing.T) {
	loader := NewLoader()
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "nopanic"), testdataImportPrefix+"nopanic")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run([]*Package{pkg}, []string{"not-a-check"}, DefaultConfig()); err == nil {
		t.Fatal("Run accepted an unknown check name")
	}
}

func TestRegisteredChecks(t *testing.T) {
	want := []string{"discarded-error", "ignored-ctx", "no-panic", "pooled-escape", "store-ownership"}
	got := CheckNames()
	if len(got) != len(want) {
		t.Fatalf("CheckNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CheckNames() = %v, want %v", got, want)
		}
	}
}

// TestLoadModuleSkipsNestedModules: a directory with its own go.mod is
// another module (the repo's benchmark/ is one). The go tool does not
// descend into it, and neither may the lint walk — its files answer to
// their own module's rules, not this one's.
func TestLoadModuleSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for rel, body := range map[string]string{
		"go.mod":        "module example.com/outer\n\ngo 1.22\n",
		"a/a.go":        "package a\n",
		"nested/go.mod": "module example.com/nested\n\ngo 1.22\n",
		"nested/b.go":   "package b\n",
	} {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := NewLoader().LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "example.com/outer/a" {
		var got []string
		for _, p := range pkgs {
			got = append(got, p.Path)
		}
		t.Fatalf("loaded %v, want only example.com/outer/a", got)
	}
}
