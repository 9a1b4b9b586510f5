package main

import (
	"encoding/json"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// gate runs benchdiff -fail-above pct and returns its output and error.
func gate(pct, oldP, newP string) (string, error) {
	var out strings.Builder
	err := run([]string{"-fail-above", pct, oldP, newP}, &out)
	return out.String(), err
}

func TestFlattenAndDelta(t *testing.T) {
	dir := t.TempDir()
	oldP := write(t, dir, "old.json", `{"container_reads": 100, "extra": {"allocs_per_chunk": 2.5}, "workloads": ["kernel"]}`)
	newP := write(t, dir, "new.json", `{"container_reads": 150, "extra": {"allocs_per_chunk": 0.1}, "workloads": ["kernel"]}`)

	oldM, err := flattenFile(oldP)
	if err != nil {
		t.Fatal(err)
	}
	if oldM["container_reads"] != 100 || oldM["extra.allocs_per_chunk"] != 2.5 || len(oldM) != 2 {
		t.Fatalf("flatten: %v", oldM)
	}
	if err := run([]string{oldP, newP}, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestDeltaEdgeCases(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	cases := []struct {
		name       string
		oldV, newV float64
		want       string
	}{
		{"growth", 100, 150, "+50 (+50.0%)"},
		{"shrink", 2.5, 0.1, "-2.400 (-96.0%)"},
		{"to-zero", 5, 0, "-5 (-100.0%)"},
		{"both-zero", 0, 0, "0"},
		{"zero-baseline", 0, 5, "new"},
		{"zero-baseline-negative", 0, -3, "new"},
		{"nan-old", nan, 5, "n/a"},
		{"nan-new", 5, nan, "n/a"},
		{"inf-old", inf, 5, "n/a"},
		{"inf-new", 5, inf, "n/a"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := delta(tc.oldV, tc.newV); got != tc.want {
				t.Fatalf("delta(%v, %v) = %q, want %q", tc.oldV, tc.newV, got, tc.want)
			}
		})
	}
}

func TestRunMissingBaselineSucceeds(t *testing.T) {
	dir := t.TempDir()
	newP := write(t, dir, "new.json", `{"container_reads": 150}`)
	// First CI run: no baseline snapshot yet. Everything reports as
	// "new"; the tool must not fail the pipeline.
	if err := run([]string{filepath.Join(dir, "absent.json"), newP}, io.Discard); err != nil {
		t.Fatalf("missing baseline should not fail: %v", err)
	}
}

func TestRunRejectsBadUsage(t *testing.T) {
	if err := run([]string{"only-one.json"}, io.Discard); err == nil {
		t.Fatal("run with one arg should fail")
	}
	if err := run([]string{"nope1.json", "nope2.json"}, io.Discard); err == nil {
		t.Fatal("run with a missing NEW snapshot should fail")
	}
	dir := t.TempDir()
	oldP := write(t, dir, "old.json", `{"ok": 1}`)
	badP := write(t, dir, "bad.json", `{not json`)
	if err := run([]string{oldP, badP}, io.Discard); err == nil {
		t.Fatal("malformed NEW snapshot should fail")
	}
	if err := run([]string{badP, oldP}, io.Discard); err == nil {
		t.Fatal("malformed OLD snapshot should fail")
	}
	// The gate reads every key; there is nothing left to narrow or widen.
	for _, flag := range []string{"-deterministic-only", "-all"} {
		if err := run([]string{flag, oldP, oldP}, io.Discard); err == nil {
			t.Errorf("%s is gone and should be rejected", flag)
		}
	}
}

func TestDirectionClassifier(t *testing.T) {
	cases := map[string]int{
		// The shapes the committed snapshots carry: the metric name sits
		// between a workload prefix and a scheme or cell suffix.
		"extra.kernel_reads_hidestore_depth8_us5000":         -1,
		"extra.kernel_speedup_us5000":                        1,
		"extra.kernel_advantage_us5000":                      1,
		"extra.kernel_modeled_ms_baseline_depth-1_us1000":    -1,
		"extra.restore_recipe_reads_oldest_kernel":           -1,
		"extra.restore_recipe_store_reads_sweep_kernel":      -1,
		"extra.restore_store_reads_sweep_cold_kernel":        -1,
		"extra.restore_recipe_store_reads_sweep_cold_kernel": -1,
		"extra.restore_allocs_per_chunk_kernel":              -1,
		"extra.gcc_write_amplification_hidestore":            -1,
		"extra.kernel_scan_share_ddfs":                       -1,
		"extra.kernel_hash_share_hidestore":                  -1,
		"extra.allocs_per_chunk_tttd":                        -1,
		"extra.kernel_cfl":                                   1,
		"extra.kernel_utilization":                           1,
		"extra.kernel_containers_per_mb":                     -1,
		"container_reads":                                    -1,
		// No inherent direction: never gated.
		"extra.avg_chunk_bytes_tttd": 0,
		"cache_hits":                 0,
		"logical_bytes":              0,
		"restored_bytes":             0,
		"extra.kernel_bytes":         0,
		// A metric name must be a whole word, not a fragment of one.
		"extra.kernel_spreads": 0,
		"extra.kernel_cflx":    0,
	}
	for key, want := range cases {
		if got := direction(key); got != want {
			t.Errorf("direction(%q) = %d, want %d", key, got, want)
		}
	}
}

func TestFailAboveGates(t *testing.T) {
	dir := t.TempDir()
	oldP := write(t, dir, "old.json",
		`{"container_reads": 50, "extra": {"kernel_cfl": 0.8}, "cache_hits": 10}`)

	// Read count up 30%: gated at 20, tolerated at 50.
	more := write(t, dir, "more.json",
		`{"container_reads": 65, "extra": {"kernel_cfl": 0.8}, "cache_hits": 10}`)
	if _, err := gate("20", oldP, more); err == nil {
		t.Error("30% read-count rise passed a 20% gate")
	}
	if _, err := gate("50", oldP, more); err != nil {
		t.Errorf("30%% rise failed a 50%% gate: %v", err)
	}
	// Report-only default never gates.
	if err := run([]string{oldP, more}, io.Discard); err != nil {
		t.Errorf("report-only run failed: %v", err)
	}
	better := write(t, dir, "better.json",
		`{"container_reads": 20, "extra": {"kernel_cfl": 0.99}, "cache_hits": 10}`)
	if _, err := gate("20", oldP, better); err != nil {
		t.Errorf("improvements gated: %v", err)
	}
	// Undirected metrics move freely.
	hits := write(t, dir, "hits.json",
		`{"container_reads": 50, "extra": {"kernel_cfl": 0.8}, "cache_hits": 900}`)
	if _, err := gate("1", oldP, hits); err != nil {
		t.Errorf("undirected metric gated: %v", err)
	}
	// Missing baseline: nothing to regress from, even with the gate on.
	if _, err := gate("1", filepath.Join(dir, "absent.json"), more); err != nil {
		t.Errorf("missing baseline failed the gate: %v", err)
	}
	// Negative thresholds are a usage error.
	if _, err := gate("-5", oldP, more); err == nil {
		t.Error("negative threshold accepted")
	}

	// The four regressions a suffix-based classifier let through: every
	// sweep key ends in _us<N>, so none of these was gated.
	restore := map[string]float64{
		"kernel_reads_hidestore_depth8_us5000":      6,
		"kernel_speedup_us5000":                     2.14,
		"kernel_modeled_ms_hidestore_depth8_us5000": 25.5,
		"kernel_advantage_us5000":                   1.51,
	}
	snapshot := func(name string, extra map[string]float64) string {
		data, err := json.Marshal(map[string]any{"extra": extra})
		if err != nil {
			t.Fatal(err)
		}
		return write(t, dir, name, string(data))
	}
	restoreP := snapshot("restore.json", restore)
	for key, bad := range map[string]float64{
		"kernel_reads_hidestore_depth8_us5000":      60,
		"kernel_speedup_us5000":                     0.10,
		"kernel_modeled_ms_hidestore_depth8_us5000": 999,
		"kernel_advantage_us5000":                   0.50,
	} {
		mutated := maps.Clone(restore)
		mutated[key] = bad
		out, err := gate("15", restoreP, snapshot("mutated.json", mutated))
		if err == nil {
			t.Errorf("%s -> %v passed a 15%% gate", key, bad)
		}
		if !strings.Contains(out, "REGRESSION: extra."+key+":") {
			t.Errorf("%s -> %v printed no REGRESSION line:\n%s", key, bad, out)
		}
	}
}

// TestZeroBaselineGates: a lower-is-better count whose committed value is
// 0 fails the gate on any rise and prints its row as a regression, not as
// new; one that stays at 0 passes, and so does a higher-is-better key at 0.
func TestZeroBaselineGates(t *testing.T) {
	dir := t.TempDir()
	snapshot := func(name string, reads, speedup float64) string {
		data, err := json.Marshal(map[string]any{"extra": map[string]float64{
			"restore_store_reads_sweep_kernel": reads,
			"kernel_speedup_us5000":            speedup,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return write(t, dir, name, string(data))
	}
	oldP := snapshot("old.json", 0, 0)
	out, err := gate("15", oldP, snapshot("rise.json", 1, 0))
	if err == nil {
		t.Error("a zero-baseline read count rising 0 -> 1 passed a 15% gate")
	}
	if !strings.Contains(out, "REGRESSION: extra.restore_store_reads_sweep_kernel: 0 -> 1") {
		t.Errorf("0 -> 1 printed no REGRESSION line:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "extra.restore_store_reads_sweep_kernel ") &&
			(!strings.Contains(line, "regressed from 0") || strings.HasSuffix(strings.TrimSpace(line), "new")) {
			t.Errorf("0 -> 1 row not printed as a regression: %q", line)
		}
	}
	if out, err := gate("15", oldP, snapshot("same.json", 0, 0)); err != nil {
		t.Errorf("a zero-baseline read count staying at 0 failed: %v\n%s", err, out)
	}
	if out, err := gate("15", oldP, snapshot("higher.json", 0, 2)); err != nil {
		t.Errorf("a higher-is-better key rising from 0 failed: %v\n%s", err, out)
	}
	if out, err := gate("15", snapshot("speedup0.json", 0, 0), snapshot("lower.json", 0, -1)); err != nil {
		t.Errorf("a higher-is-better key at 0 failed: %v\n%s", err, out)
	}
}

// TestDeterministicOnlyGates: the exact counts CI relies on — allocations
// per chunk, write amplification, recipe reads — gate under the plain
// -fail-above, with no flag to ask for it, and one that stops being
// emitted fails too.
func TestDeterministicOnlyGates(t *testing.T) {
	dir := t.TempDir()
	oldP := write(t, dir, "old.json",
		`{"logical_bytes": 100, "extra": {"kernel_allocs_per_chunk_hidestore": 2.0}}`)

	// Allocs regress: the gate must fail.
	leaky := write(t, dir, "leaky.json",
		`{"logical_bytes": 100, "extra": {"kernel_allocs_per_chunk_hidestore": 3.0}}`)
	if _, err := gate("20", oldP, leaky); err == nil {
		t.Error("50% allocs/chunk rise passed the gate")
	}
	// So does write amplification — the rewrite of every touched active
	// image it exists to keep out.
	oldW := write(t, dir, "oldw.json", `{"extra": {"gcc_write_amplification_hidestore": 0.55}}`)
	rewriting := write(t, dir, "rewriting.json", `{"extra": {"gcc_write_amplification_hidestore": 1.36}}`)
	if _, err := gate("20", oldW, rewriting); err == nil {
		t.Error("write amplification 0.55 -> 1.36 passed the gate")
	}
	// And recipe reads — a chain walk per old restore coming back.
	oldR := write(t, dir, "oldr.json", `{"extra": {"restore_recipe_reads_oldest_kernel": 7}}`)
	rewalking := write(t, dir, "rewalking.json", `{"extra": {"restore_recipe_reads_oldest_kernel": 9}}`)
	if _, err := gate("20", oldR, rewalking); err == nil {
		t.Error("recipe reads 7 -> 9 passed the gate")
	}
	// A gated key that stops being emitted fails: a refactor that dropped
	// write_amplification_* would otherwise retire its own gate. An
	// undirected key going missing stays report-only.
	vanished := write(t, dir, "vanished.json", `{"logical_bytes": 100, "extra": {}}`)
	out, err := gate("20", oldP, vanished)
	if err == nil || !strings.Contains(out, "REGRESSION: extra.kernel_allocs_per_chunk_hidestore") {
		t.Errorf("a missing allocs/chunk key passed the gate (%v):\n%s", err, out)
	}
	if _, err := gate("20", oldW, vanished); err == nil {
		t.Error("a missing write-amplification key passed the gate")
	}
	if _, err := gate("20", vanished, oldW); err != nil {
		t.Errorf("an undirected key missing from the new run gated: %v", err)
	}
	if err := run([]string{oldP, vanished}, io.Discard); err != nil {
		t.Errorf("report-only run failed on a missing key: %v", err)
	}
	// Allocs improving never gates.
	lean := write(t, dir, "lean.json",
		`{"logical_bytes": 100, "extra": {"kernel_allocs_per_chunk_hidestore": 1.0}}`)
	if _, err := gate("20", oldP, lean); err != nil {
		t.Errorf("allocs improvement gated: %v", err)
	}
}
