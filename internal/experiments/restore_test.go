package experiments

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	restoreSweepOnce sync.Once
	restoreSweepRes  *RestoreScaleResult
	restoreSweepErr  error
)

// restoreSweep runs the kernel sweep once for every test that reads it.
func restoreSweep(t *testing.T) *RestoreScaleResult {
	t.Helper()
	restoreSweepOnce.Do(func() {
		restoreSweepRes, restoreSweepErr = RestoreScale("kernel", testOptions())
	})
	if restoreSweepErr != nil {
		t.Fatal(restoreSweepErr)
	}
	return restoreSweepRes
}

// TestRemoteShape pins the scheme comparison behind the simulated remote
// store:
//
//   - the newest-version restore reads fewer containers under HiDeStore
//     than under the logical-locality baseline;
//   - the serial modeled restore-time advantage grows strictly with fetch
//     latency, the curve BENCH_restore.json publishes.
func TestRemoteShape(t *testing.T) {
	res := restoreSweep(t)
	hide := res.Cell("hidestore", -1, 0).Reads
	base := res.Cell("baseline", -1, 0).Reads
	if hide >= base {
		t.Fatalf("hidestore reads %d >= baseline reads %d on the newest version", hide, base)
	}
	if len(res.Advantage) != len(RestoreSweepLatencies) {
		t.Fatalf("advantage curve has %d points, want %d", len(res.Advantage), len(RestoreSweepLatencies))
	}
	for i := 1; i < len(res.Advantage); i++ {
		if res.Advantage[i] <= res.Advantage[i-1] {
			t.Errorf("advantage not strictly increasing: %.4f (lat %s) -> %.4f (lat %s)",
				res.Advantage[i-1], res.Latencies[i-1], res.Advantage[i], res.Latencies[i])
		}
	}
	if out := res.Render(); !strings.Contains(out, "advantage") || !strings.Contains(out, "baseline") {
		t.Errorf("render missing the advantage curve:\n%s", out)
	}
	extras := res.Extras()
	for _, g := range RestoreSweepLatencies {
		if _, ok := extras["advantage_us"+strconv.FormatInt(g.Microseconds(), 10)]; !ok {
			t.Errorf("extras missing advantage for latency %s", g)
		}
	}
}

// TestRestoreShape pins the read-ahead side of the sweep:
//
//   - within a scheme every cell reads the same number of containers, no
//     matter the depth or latency — the accounting identity prefetch must
//     hold by construction;
//   - HiDeStore with prefetch at the default depth beats no prefetch
//     (speedup > 1) at latencies >= 1ms, and the gap grows with latency;
//   - a deeper window never makes the modeled restore slower, for either
//     scheme.
func TestRestoreShape(t *testing.T) {
	res := restoreSweep(t)
	wantCells := len(RestoreSchemes) * len(RestoreSweepDepths) * len(RestoreSweepLatencies)
	if len(res.Cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(res.Cells), wantCells)
	}
	for _, c := range res.Cells {
		reads := res.Cell(c.Scheme, -1, 0).Reads
		if reads == 0 {
			t.Fatalf("%s: zero container reads", c.Scheme)
		}
		if c.Reads != reads {
			t.Errorf("%s depth=%d us=%d: reads = %d, want %d (accounting identity)",
				c.Scheme, c.Depth, c.LatencyUS, c.Reads, reads)
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

	for _, scheme := range RestoreSchemes {
		for _, g := range RestoreSweepLatencies {
			prev := res.Cell(scheme, RestoreSweepDepths[0], g)
			for _, d := range RestoreSweepDepths[1:] {
				c := res.Cell(scheme, d, g)
				if c.ModeledMS > prev.ModeledMS {
					t.Errorf("%s latency %s: depth %d modeled %.4fms > depth %d modeled %.4fms",
						scheme, g, c.Depth, c.ModeledMS, prev.Depth, prev.ModeledMS)
				}
				prev = c
			}
		}
	}

	out := res.Render()
	for _, frag := range []string{"depth", "speedup", "recipe reads"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q", frag)
		}
	}
	extras := res.Extras()
	for _, g := range RestoreSweepLatencies {
		if _, ok := extras["speedup_us"+strconv.FormatInt(g.Microseconds(), 10)]; !ok {
			t.Errorf("extras missing speedup for latency %s", g)
		}
	}
}
