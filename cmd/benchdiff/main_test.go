package main

import (
	"math"
	"os"
	"path/filepath"
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

func TestFlattenAndDelta(t *testing.T) {
	dir := t.TempDir()
	oldP := write(t, dir, "old.json", `{"backup_mb_per_sec": 100, "extra": {"allocs_per_chunk": 2.5}, "stages": {"chunking_ns": {"p50_ns": 10, "count": 5}}}`)
	newP := write(t, dir, "new.json", `{"backup_mb_per_sec": 150, "extra": {"allocs_per_chunk": 0.1}, "stages": {"chunking_ns": {"p50_ns": 6, "count": 5}}}`)

	oldM, err := flattenFile(oldP)
	if err != nil {
		t.Fatal(err)
	}
	if oldM["backup_mb_per_sec"] != 100 || oldM["extra.allocs_per_chunk"] != 2.5 || oldM["stages.chunking_ns.p50_ns"] != 10 {
		t.Fatalf("flatten: %v", oldM)
	}
	if err := run([]string{oldP, newP}); err != nil {
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
	newP := write(t, dir, "new.json", `{"backup_mb_per_sec": 150}`)
	// First CI run: no baseline snapshot yet. Everything reports as
	// "new"; the tool must not fail the pipeline.
	if err := run([]string{filepath.Join(dir, "absent.json"), newP}); err != nil {
		t.Fatalf("missing baseline should not fail: %v", err)
	}
}

func TestRunRejectsBadUsage(t *testing.T) {
	if err := run([]string{"only-one.json"}); err == nil {
		t.Fatal("run with one arg should fail")
	}
	if err := run([]string{"nope1.json", "nope2.json"}); err == nil {
		t.Fatal("run with a missing NEW snapshot should fail")
	}
	dir := t.TempDir()
	oldP := write(t, dir, "old.json", `{"ok": 1}`)
	badP := write(t, dir, "bad.json", `{not json`)
	if err := run([]string{oldP, badP}); err == nil {
		t.Fatal("malformed NEW snapshot should fail")
	}
	if err := run([]string{badP, oldP}); err == nil {
		t.Fatal("malformed OLD snapshot should fail")
	}
}

func TestDirectionClassifier(t *testing.T) {
	cases := map[string]int{
		"restore_mb_per_sec":        1,
		"extra.kernel_speedup":      1,
		"speed_factor":              1,
		"extra.kernel_cfl":          1,
		"extra.kernel_utilization":  1,
		"dedup_ratio":               1,
		"stages.chunking_ns.p50_ns": -1,
		"wall_seconds":              -1,
		"extra.kernel_reads":        -1,
		"containers_per_mb":         -1,
		"chunks":                    0,
		"versions":                  0,
		"extra.kernel_bytes":        0,
		"scale_mb":                  0,
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
		`{"restore_mb_per_sec": 100, "extra": {"kernel_reads": 50, "kernel_cfl": 0.8}, "chunks": 10}`)

	// Throughput down 30%: gated at 20, tolerated at 50.
	slow := write(t, dir, "slow.json",
		`{"restore_mb_per_sec": 70, "extra": {"kernel_reads": 50, "kernel_cfl": 0.8}, "chunks": 10}`)
	if err := run([]string{"-fail-above", "20", oldP, slow}); err == nil {
		t.Error("30% throughput drop passed a 20% gate")
	}
	if err := run([]string{"-fail-above", "50", oldP, slow}); err != nil {
		t.Errorf("30%% drop failed a 50%% gate: %v", err)
	}
	// Report-only default never gates.
	if err := run([]string{oldP, slow}); err != nil {
		t.Errorf("report-only run failed: %v", err)
	}

	// Lower-better direction: read count up 50% is a regression; the
	// same move down is an improvement.
	reads := write(t, dir, "reads.json",
		`{"restore_mb_per_sec": 100, "extra": {"kernel_reads": 75, "kernel_cfl": 0.8}, "chunks": 10}`)
	if err := run([]string{"-fail-above", "20", oldP, reads}); err == nil {
		t.Error("50% read-count rise passed a 20% gate")
	}
	better := write(t, dir, "better.json",
		`{"restore_mb_per_sec": 180, "extra": {"kernel_reads": 20, "kernel_cfl": 0.99}, "chunks": 10}`)
	if err := run([]string{"-fail-above", "20", oldP, better}); err != nil {
		t.Errorf("improvements gated: %v", err)
	}

	// Undirected metrics move freely.
	counts := write(t, dir, "counts.json",
		`{"restore_mb_per_sec": 100, "extra": {"kernel_reads": 50, "kernel_cfl": 0.8}, "chunks": 900}`)
	if err := run([]string{"-fail-above", "1", oldP, counts}); err != nil {
		t.Errorf("undirected metric gated: %v", err)
	}

	// Missing baseline: nothing to regress from, even with the gate on.
	if err := run([]string{"-fail-above", "1", filepath.Join(dir, "absent.json"), slow}); err != nil {
		t.Errorf("missing baseline failed the gate: %v", err)
	}

	// Negative thresholds are a usage error.
	if err := run([]string{"-fail-above", "-5", oldP, slow}); err == nil {
		t.Error("negative threshold accepted")
	}
}

func TestDeterministicOnlyGates(t *testing.T) {
	dir := t.TempDir()
	oldP := write(t, dir, "old.json",
		`{"backup_mb_per_sec": 100, "extra": {"kernel_allocs_per_chunk_hidestore": 2.0}}`)

	// Wall time tanks but allocs hold: deterministic-only tolerates it,
	// the plain gate does not.
	slow := write(t, dir, "slow.json",
		`{"backup_mb_per_sec": 40, "extra": {"kernel_allocs_per_chunk_hidestore": 2.0}}`)
	if err := run([]string{"-fail-above", "20", "-deterministic-only", oldP, slow}); err != nil {
		t.Errorf("wall-time drop gated under -deterministic-only: %v", err)
	}
	if err := run([]string{"-fail-above", "20", oldP, slow}); err == nil {
		t.Error("wall-time drop passed the plain gate")
	}

	// Allocs regress: deterministic-only must fail.
	leaky := write(t, dir, "leaky.json",
		`{"backup_mb_per_sec": 100, "extra": {"kernel_allocs_per_chunk_hidestore": 3.0}}`)
	if err := run([]string{"-fail-above", "20", "-deterministic-only", oldP, leaky}); err == nil {
		t.Error("50% allocs/chunk rise passed the deterministic gate")
	}
	// So does the other exact count, write amplification — the rewrite
	// of every touched active image it exists to keep out.
	oldW := write(t, dir, "oldw.json", `{"extra": {"gcc_write_amplification_hidestore": 0.55}}`)
	rewriting := write(t, dir, "rewriting.json", `{"extra": {"gcc_write_amplification_hidestore": 1.36}}`)
	if err := run([]string{"-fail-above", "20", "-deterministic-only", oldW, rewriting}); err == nil {
		t.Error("write amplification 0.55 -> 1.36 passed the deterministic gate")
	}
	// And recipe reads — a chain walk per old restore coming back.
	oldR := write(t, dir, "oldr.json", `{"extra": {"restore_recipe_reads_oldest_kernel": 7}}`)
	rewalking := write(t, dir, "rewalking.json", `{"extra": {"restore_recipe_reads_oldest_kernel": 9}}`)
	if err := run([]string{"-fail-above", "20", "-deterministic-only", oldR, rewalking}); err == nil {
		t.Error("recipe reads 7 -> 9 passed the deterministic gate")
	}
	// A gated key that stops being emitted fails too: a refactor that
	// dropped write_amplification_* would otherwise retire its own gate.
	// A wall-time key going missing stays report-only.
	vanished := write(t, dir, "vanished.json", `{"backup_mb_per_sec": 100, "extra": {}}`)
	if err := run([]string{"-fail-above", "20", "-deterministic-only", oldP, vanished}); err == nil {
		t.Error("a missing allocs/chunk key passed the deterministic gate")
	}
	if err := run([]string{"-fail-above", "20", "-deterministic-only", oldW, vanished}); err == nil {
		t.Error("a missing write-amplification key passed the deterministic gate")
	}
	if err := run([]string{"-fail-above", "20", "-deterministic-only", vanished, oldW}); err != nil {
		t.Errorf("a wall-time key missing from the new run gated: %v", err)
	}
	if err := run([]string{oldP, vanished}); err != nil {
		t.Errorf("report-only run failed on a missing key: %v", err)
	}
	// Allocs improving never gates.
	lean := write(t, dir, "lean.json",
		`{"backup_mb_per_sec": 100, "extra": {"kernel_allocs_per_chunk_hidestore": 1.0}}`)
	if err := run([]string{"-fail-above", "20", "-deterministic-only", oldP, lean}); err != nil {
		t.Errorf("allocs improvement gated: %v", err)
	}
}
