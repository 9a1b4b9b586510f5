package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"hidestore/internal/backend"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/core"
	"hidestore/internal/metrics"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
	"hidestore/internal/workload"
)

// The restore experiment measures read-ahead's payoff: with the
// container store behind the deterministic remote simulator, it sweeps
// prefetch depth × per-fetch latency on the HiDeStore engine and
// reports wall and modeled restore times.
//
// The mechanism being measured is fetch overlap. A serial restore pays
// every container round trip back to back; prefetch keeps up to depth
// fetches in flight — the window is the fetch pool — so the remote time
// divides by min(depth, reads) while chunk assembly — client-side
// memcpy — stays the same. ModeledMS applies exactly that model to the
// simulator's deterministic modeled remote time, which makes the
// speedup curve reproducible bit for bit; WallMS is the measured clock
// and shows the same shape when sleeps are real (sleepScale 1).
//
// The sweep also re-checks the accounting identity where it is easiest
// to break: every cell must report the same policy-level container
// read count, however many fetches overlap. A cell that reads more
// (duplicated fetches) or fewer (skipped chunks) containers than the
// serial baseline fails the experiment outright.

// RestoreSweepDepths are the swept prefetch depths: -1 disables
// prefetch entirely (the serial control row), 8 is the default
// read-ahead window.
var RestoreSweepDepths = []int{-1, 2, 8}

// RestoreSweepLatencies are the swept per-fetch round-trip latencies.
// The acceptance criterion lives at >= 1ms: that is where fetch cost
// dominates assembly and read-ahead must show through.
var RestoreSweepLatencies = []time.Duration{0, time.Millisecond, 5 * time.Millisecond}

// RestoreScaleCell is one (depth, latency) outcome.
type RestoreScaleCell struct {
	Depth     int
	LatencyUS int64
	// Reads is the policy-level container-read count for the newest
	// restore — identical across every cell by the accounting identity,
	// enforced by the sweep driver.
	Reads       int64
	ReadMB      float64
	SpeedFactor float64
	WallMS      float64
	ModeledMS   float64
}

// RestoreScaleResult holds the full sweep for one workload.
type RestoreScaleResult struct {
	Workload  string
	Depths    []int
	Latencies []time.Duration
	Cells     []RestoreScaleCell
	// Speedup[i] is ModeledMS with prefetch off over ModeledMS at the
	// deepest swept depth, both at Latencies[i] — read-ahead's payoff
	// curve.
	Speedup []float64
	// CFL, Utilization and ContainersPerMB profile the newest version's
	// physical layout (internal/layout over an identically-built store),
	// so the BENCH snapshot ties the speedup rows to the fragmentation
	// state they were measured against.
	CFL             float64
	Utilization     float64
	ContainersPerMB float64
	// AllocsPerChunk is heap allocations per restored chunk for the
	// newest version on a plain in-memory store: a count of what the
	// restore data path did, independent of the host's speed, so CI can
	// gate on it. Assembly copies from views of the fetched images, so it
	// scales with containers and spans, not chunks.
	AllocsPerChunk float64
	// RecipeReadsOldest is the recipe reads of a cold restore of the
	// oldest version on the same store (RestoreReport.RecipesRead): its own
	// recipe plus every newer one its forward pointers led through. Exact,
	// so CI gates on it like the allocation count.
	RecipeReadsOldest float64
}

// effectiveFetchParallelism mirrors the prefetcher's own bound: its pool
// is the read-ahead window, and it never starts more fetches than there
// are distinct containers to read.
func effectiveFetchParallelism(depth int, reads int64) float64 {
	if depth < 0 {
		return 1 // no prefetch pipeline: fetches are strictly serial
	}
	if depth == 0 {
		depth = restorecache.DefaultPrefetchDepth
	}
	return float64(max(1, min(int64(depth), reads)))
}

// runRestoreScaleCell backs up the chain and restores the newest
// version with the given prefetch depth over a fresh remote simulator.
func runRestoreScaleCell(o Options, w workload.Config, versions [][]byte, depth int, latency time.Duration, sleepScale float64) (RestoreScaleCell, error) {
	stack, sim, err := backend.NewStack(backend.NewMem(), backend.StackOptions{
		Sim: backend.SimOptions{
			Latency:      latency,
			BandwidthBps: remoteBandwidthMBps * (1 << 20),
			Seed:         1,
			SleepScale:   sleepScale,
		},
	})
	if err != nil {
		return RestoreScaleCell{}, err
	}
	e, err := core.New(core.Config{
		Store:             backend.NewContainerStore(stack),
		Recipes:           recipe.NewMemStore(),
		ContainerCapacity: o.ContainerCapacity,
		Window:            cacheWindow(w),
		ChunkParams:       o.ChunkParams,
		Chunker:           chunker.FastCDC,
		RestoreCache:      restorecache.NewFAA(0),
		PrefetchDepth:     depth,
		Metrics:           o.Metrics,
	})
	if err != nil {
		return RestoreScaleCell{}, err
	}
	for v, data := range versions {
		if _, err := e.Backup(context.Background(), bytes.NewReader(data)); err != nil {
			return RestoreScaleCell{}, fmt.Errorf("backup v%d: %w", v+1, err)
		}
	}
	before := sim.Stats()
	start := time.Now()
	rep, err := restoreVerify(e, len(versions), versions[len(versions)-1])
	if err != nil {
		return RestoreScaleCell{}, err
	}
	wall := time.Since(start)
	after := sim.Stats()

	reads := int64(rep.Stats.ContainerReads)
	readMB := float64(after.Bytes-before.Bytes) / (1 << 20)
	restoredMB := float64(rep.Stats.BytesRestored) / (1 << 20)
	remoteMS := float64((after.Modeled - before.Modeled).Microseconds()) / 1e3
	modeledMS := restoredMB/remoteAssemblyMBps*1e3 +
		remoteMS/effectiveFetchParallelism(depth, reads)
	return RestoreScaleCell{
		Depth:       depth,
		LatencyUS:   latency.Microseconds(),
		Reads:       reads,
		ReadMB:      readMB,
		SpeedFactor: rep.Stats.SpeedFactor(),
		WallMS:      float64(wall.Microseconds()) / 1e3,
		ModeledMS:   modeledMS,
	}, nil
}

// RestoreScale runs the depth × latency sweep for one workload. sleepScale is threaded into every simulator exactly as in
// Remote: 1 sleeps for real, negative skips sleeps while still
// accumulating modeled time.
func RestoreScale(workloadName string, sleepScale float64, opts Options) (*RestoreScaleResult, error) {
	opts = opts.withDefaults()
	cfg, err := opts.loadWorkload(workloadName)
	if err != nil {
		return nil, err
	}
	var versions [][]byte
	err = forEachVersion(cfg, func(v int, r io.Reader) error {
		data, err := io.ReadAll(r)
		if err != nil {
			return err
		}
		versions = append(versions, data)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &RestoreScaleResult{
		Workload:  cfg.Name,
		Depths:    RestoreSweepDepths,
		Latencies: RestoreSweepLatencies,
	}
	for _, depth := range RestoreSweepDepths {
		for _, g := range RestoreSweepLatencies {
			cell, err := runRestoreScaleCell(opts, cfg, versions, depth, g, sleepScale)
			if err != nil {
				return nil, fmt.Errorf("depth=%d latency=%s: %w", depth, g, err)
			}
			res.Cells = append(res.Cells, cell)
		}
	}
	// The accounting identity, enforced: depth must not change what gets
	// read.
	for i := range res.Cells {
		if res.Cells[i].Reads != res.Cells[0].Reads {
			return nil, fmt.Errorf("experiments: cell depth=%d us=%d read %d containers, baseline read %d — prefetch changed the read count",
				res.Cells[i].Depth, res.Cells[i].LatencyUS, res.Cells[i].Reads, res.Cells[0].Reads)
		}
	}
	serial := RestoreSweepDepths[0]
	deepest := RestoreSweepDepths[len(RestoreSweepDepths)-1]
	for _, g := range RestoreSweepLatencies {
		off := res.Cell(serial, g)
		deep := res.Cell(deepest, g)
		if off == nil || deep == nil || deep.ModeledMS == 0 {
			return nil, fmt.Errorf("experiments: missing speedup cells for latency %s", g)
		}
		res.Speedup = append(res.Speedup, off.ModeledMS/deep.ModeledMS)
	}
	mem, err := restoreMemEngine(opts, cfg, versions)
	if err != nil {
		return nil, err
	}
	if res.AllocsPerChunk, err = restoreAllocsPerChunk(mem, len(versions)); err != nil {
		return nil, err
	}
	prof, err := mem.AnalyzeLayout(context.Background(), len(versions), []string{"faa"})
	if err != nil {
		return nil, err
	}
	// The layout analyzer replays the reference stream through the same
	// FAA policy the cells restore with, so its read count must equal
	// every cell's — a cheap re-check of the exactness guarantee from a
	// second, independently-built store.
	if got := int64(prof.Policies[0].ContainerReads); got != res.Cells[0].Reads {
		return nil, fmt.Errorf("experiments: layout analyzer simulated %d container reads, restores measured %d — the exact-identity guarantee broke",
			got, res.Cells[0].Reads)
	}
	res.CFL = prof.CFL
	res.Utilization = prof.Utilization
	res.ContainersPerMB = prof.ContainersPerMB
	// Last, because it writes the oldest recipe back.
	oldest, err := restoreDiscard(mem, 1)
	if err != nil {
		return nil, fmt.Errorf("recipe read count restore v1: %w", err)
	}
	res.RecipeReadsOldest = float64(oldest.RecipesRead)
	return res, nil
}

// restoreMemEngine rebuilds the backup chain on a plain in-memory store
// (deterministic chunking makes it byte-identical to every cell's
// store), restoring with the FAA policy the sweep uses: the engine the
// layout profile and the allocation count are taken from.
func restoreMemEngine(o Options, w workload.Config, versions [][]byte) (*core.Engine, error) {
	e, err := core.New(core.Config{
		Store:             container.NewMemStore(),
		Recipes:           recipe.NewMemStore(),
		ContainerCapacity: o.ContainerCapacity,
		Window:            cacheWindow(w),
		ChunkParams:       o.ChunkParams,
		Chunker:           chunker.FastCDC,
		RestoreCache:      restorecache.NewFAA(0),
	})
	if err != nil {
		return nil, err
	}
	for v, data := range versions {
		if _, err := e.Backup(context.Background(), bytes.NewReader(data)); err != nil {
			return nil, fmt.Errorf("layout profile backup v%d: %w", v+1, err)
		}
	}
	return e, nil
}

// restoreAllocsPerChunk restores one version into a discarding sink and
// returns the heap allocations it made per chunk restored.
func restoreAllocsPerChunk(e *core.Engine, version int) (float64, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := e.Restore(context.Background(), version, io.Discard)
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, fmt.Errorf("allocation count restore v%d: %w", version, err)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(rep.Stats.Chunks), nil
}

// Cell returns the cell for (depth, latency), or nil.
func (r *RestoreScaleResult) Cell(depth int, latency time.Duration) *RestoreScaleCell {
	us := latency.Microseconds()
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Depth == depth && c.LatencyUS == us {
			return c
		}
	}
	return nil
}

// Extras exposes the sweep as flat scalars for BENCH_restore.json: the
// speedup curve (the acceptance metric), plus per-cell modeled and
// wall times keyed by depth and latency in microseconds.
func (r *RestoreScaleResult) Extras() map[string]float64 {
	out := make(map[string]float64)
	for i, g := range r.Latencies {
		out[fmt.Sprintf("speedup_us%d", g.Microseconds())] = r.Speedup[i]
	}
	out["cfl"] = r.CFL
	out["utilization"] = r.Utilization
	out["containers_per_mb"] = r.ContainersPerMB
	for _, c := range r.Cells {
		key := fmt.Sprintf("depth%d_us%d", c.Depth, c.LatencyUS)
		out["modeled_ms_"+key] = c.ModeledMS
		out["wall_ms_"+key] = c.WallMS
		out["reads_"+key] = float64(c.Reads)
	}
	return out
}

// Render formats the sweep and the speedup curve.
func (r *RestoreScaleResult) Render() string {
	t := metrics.NewTable(fmt.Sprintf("Restore read-ahead (%s): prefetch depth x fetch latency", r.Workload),
		"depth", "latency", "reads", "read MB", "SF", "wall ms", "modeled ms")
	for _, c := range r.Cells {
		t.AddRow(fmt.Sprintf("%d", c.Depth),
			(time.Duration(c.LatencyUS) * time.Microsecond).String(),
			fmt.Sprintf("%d", c.Reads),
			metrics.FormatFloat(c.ReadMB),
			metrics.FormatFloat(c.SpeedFactor),
			metrics.FormatFloat(c.WallMS),
			metrics.FormatFloat(c.ModeledMS))
	}
	s := t.Render()
	s += "\nmodeled restore speedup (prefetch off / deepest prefetch):"
	for i, g := range r.Latencies {
		s += fmt.Sprintf(" %s=%.2fx", g, r.Speedup[i])
	}
	s += fmt.Sprintf("\nnewest-version layout: CFL %.3f, utilization %.1f%%, %.3f containers/MB\n",
		r.CFL, r.Utilization*100, r.ContainersPerMB)
	s += fmt.Sprintf("restore allocations: %.3f per chunk\n", r.AllocsPerChunk)
	s += fmt.Sprintf("oldest version, cold: %.0f recipe reads\n", r.RecipeReadsOldest)
	return s
}
