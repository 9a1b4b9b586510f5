package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestRestoreShape pins the read-ahead sweep's reproduction targets on
// deterministic modeled numbers (sleepScale -1):
//
//   - every cell reads the same number of containers, no matter the
//     depth or latency — the accounting identity prefetch must hold by
//     construction;
//   - prefetch at the default depth beats no prefetch (speedup > 1) at
//     latencies >= 1ms, and the gap grows with latency, the acceptance
//     criterion BENCH_restore.json publishes;
//   - a deeper window never makes the modeled restore slower.
func TestRestoreShape(t *testing.T) {
	res, err := RestoreScale("kernel", -1, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(RestoreSweepDepths) * len(RestoreSweepLatencies)
	if len(res.Cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(res.Cells), wantCells)
	}

	reads := res.Cells[0].Reads
	if reads == 0 {
		t.Fatal("zero container reads")
	}
	for _, c := range res.Cells {
		if c.Reads != reads {
			t.Errorf("depth=%d us=%d: reads = %d, want %d (accounting identity)",
				c.Depth, c.LatencyUS, c.Reads, reads)
		}
	}

	if RestoreSweepDepths[0] != -1 || RestoreSweepDepths[len(RestoreSweepDepths)-1] != 8 {
		t.Fatalf("sweep depths %v: the speedup must compare -1 with 8", RestoreSweepDepths)
	}
	if len(res.Speedup) != len(RestoreSweepLatencies) {
		t.Fatalf("speedup curve has %d points, want %d", len(res.Speedup), len(RestoreSweepLatencies))
	}
	for i, g := range RestoreSweepLatencies {
		if g >= time.Millisecond && res.Speedup[i] <= 1 {
			t.Errorf("speedup at latency %s = %.4f, want > 1", g, res.Speedup[i])
		}
	}
	for i := 1; i < len(res.Speedup); i++ {
		if res.Speedup[i] <= res.Speedup[i-1] {
			t.Errorf("speedup did not grow with latency: %.4f (lat %s) -> %.4f (lat %s)",
				res.Speedup[i-1], res.Latencies[i-1], res.Speedup[i], res.Latencies[i])
		}
	}

	for _, g := range RestoreSweepLatencies {
		prev := res.Cell(RestoreSweepDepths[0], g)
		for _, d := range RestoreSweepDepths[1:] {
			c := res.Cell(d, g)
			if c.ModeledMS > prev.ModeledMS {
				t.Errorf("latency %s: depth %d modeled %.4fms > depth %d modeled %.4fms",
					g, c.Depth, c.ModeledMS, prev.Depth, prev.ModeledMS)
			}
			prev = c
		}
	}

	out := res.Render()
	for _, frag := range []string{"read-ahead", "depth", "speedup"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q", frag)
		}
	}
	extras := res.Extras()
	if len(extras) == 0 {
		t.Fatal("no extras for BENCH_restore.json")
	}
	for _, g := range RestoreSweepLatencies {
		if _, ok := extras["speedup_us"+strconv.FormatInt(g.Microseconds(), 10)]; !ok {
			t.Errorf("extras missing speedup for latency %s", g)
		}
	}
}
