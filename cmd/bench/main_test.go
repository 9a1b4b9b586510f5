package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The bench CLI is exercised end to end at tiny scale: every experiment
// id must run to completion.
func TestBenchExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke tests are slow")
	}
	base := []string{"-workloads", "kernel", "-scale", "2", "-versions", "4", "-container", "262144"}
	for _, exp := range []string{"table1", "fig3", "fig9", "fig10", "fig12", "deletion"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			t.Parallel()
			if err := run(append([]string{"-exp", exp}, base...)); err != nil {
				t.Fatalf("bench -exp %s: %v", exp, err)
			}
		})
	}
}

func TestBenchHeavyExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke tests are slow")
	}
	base := []string{"-workloads", "kernel", "-scale", "2", "-versions", "4", "-container", "262144"}
	for _, exp := range []string{"fig8", "fig11"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			t.Parallel()
			if err := run(append([]string{"-exp", exp}, base...)); err != nil {
				t.Fatalf("bench -exp %s: %v", exp, err)
			}
		})
	}
}

func TestBenchCSVFormat(t *testing.T) {
	base := []string{"-workloads", "kernel", "-scale", "2", "-versions", "3",
		"-container", "262144", "-format", "csv"}
	for _, exp := range []string{"fig9", "fig10"} {
		if err := run(append([]string{"-exp", exp}, base...)); err != nil {
			t.Fatalf("bench -exp %s -format csv: %v", exp, err)
		}
	}
}

func TestBenchErrors(t *testing.T) {
	if err := run([]string{"-exp", "nope"}); err == nil {
		t.Fatal("unknown experiment should fail")
	}
	if err := run([]string{"-exp", "table1", "-workloads", "bogus"}); err == nil {
		t.Fatal("unknown workload should fail")
	}
	for _, exp := range []string{"remote", "throughput"} {
		if err := run([]string{"-exp", exp}); err == nil {
			t.Errorf("-exp %s is gone and should fail", exp)
		}
	}
	if err := run([]string{"-exp", "restore", "-sleep-scale", "1"}); err == nil {
		t.Error("-sleep-scale is gone and should fail")
	}
}

// TestBenchSnapshotsExact: what a committed snapshot holds is a function
// of the code alone. Two runs of each gated experiment flatten to the
// same keys and values — allocs/chunk excepted, which counts what the
// runtime did and only has to be there — and no key is a wall time.
func TestBenchSnapshotsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke tests are slow")
	}
	for _, exp := range []string{"restore", "backup"} {
		t.Run(exp, func(t *testing.T) {
			var runs [2]map[string]float64
			for i := range runs {
				dir := t.TempDir()
				if err := run([]string{"-exp", exp, "-workloads", "kernel", "-scale", "2", "-versions", "4", "-json", dir}); err != nil {
					t.Fatalf("bench -exp %s: %v", exp, err)
				}
				runs[i] = flattenSnapshot(t, filepath.Join(dir, "BENCH_"+exp+".json"))
			}
			if len(runs[0]) != len(runs[1]) {
				t.Errorf("runs flatten to %d and %d keys", len(runs[0]), len(runs[1]))
			}
			allocs := 0
			for k, v := range runs[0] {
				for _, banned := range []string{"mb_per_sec", "wall", "_ns", "stages", "registry"} {
					if strings.Contains(k, banned) {
						t.Errorf("key %s is not an exact metric (contains %q)", k, banned)
					}
				}
				w, ok := runs[1][k]
				switch {
				case !ok:
					t.Errorf("key %s missing from the second run", k)
				case strings.Contains(k, "allocs_per_chunk"):
					allocs++
				case v != w:
					t.Errorf("%s: %v then %v", k, v, w)
				}
			}
			if allocs == 0 {
				t.Error("no allocs_per_chunk key in the snapshot")
			}
		})
	}
}

// flattenSnapshot reads a BENCH_<exp>.json and returns its numeric leaves
// keyed by dotted path.
func flattenSnapshot(t *testing.T, path string) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				walk(strings.TrimPrefix(prefix+"."+k, "."), e)
			}
		case []any:
			for i, e := range v {
				walk(fmt.Sprintf("%s.%d", prefix, i), e)
			}
		case float64:
			out[prefix] = v
		}
	}
	walk("", doc)
	return out
}
