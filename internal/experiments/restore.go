package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"hidestore/internal/backend"
	"hidestore/internal/backup"
	"hidestore/internal/container"
	"hidestore/internal/core"
	"hidestore/internal/dedup"
	"hidestore/internal/metrics"
	"hidestore/internal/restorecache"
	"hidestore/internal/workload"
)

// The restore experiment puts numbers behind the paper's motivating
// claim — physical locality matters *more* the more a container fetch
// costs — and behind read-ahead, which hides what a fetch costs. Every
// cell backs up the chain and restores the newest version with the
// container store behind the deterministic remote simulator, sweeping
// scheme × restore prefetch depth × simulated per-fetch latency.
//
// ModeledMS is the one time metric, and it is exact: chunk-assembly cost
// at a fixed client rate plus the simulator's modeled remote time
// (reads × latency + bytes / bandwidth, no real sleeps) divided by the
// fetches the prefetcher keeps in flight, min(depth, reads). Both
// schemes restore through the same driver and prefetcher, so the same
// model prices both. Wall-clock restore speed is benchmark/'s
// kernel-remote workload.
//
// Two curves come out of it:
//
//   - Advantage: baseline over HiDeStore ModeledMS at serial depth. Both
//     schemes pay the same assembly cost A and per-read overhead
//     c = latency + containerBytes/bw, so the ratio (A + Rb·c)/(A + Rh·c)
//     rises with latency whenever the baseline reads more containers
//     (Rb > Rh), which the physical-locality layout gives the newest
//     version.
//   - Speedup: HiDeStore ModeledMS with prefetch off over the deepest
//     window, read-ahead's payoff. It saturates at the distinct-container
//     count.
//
// The sweep also re-checks the accounting identity where it is easiest
// to break: within a scheme every cell must read the same number of
// containers, however many fetches overlap and whatever they cost. A
// cell that reads more (duplicated fetches) or fewer (skipped chunks)
// fails the experiment outright.

const (
	// remoteBandwidthMBps caps simulated remote payload throughput. The
	// sweep models the object-store regime — a fat pipe with expensive
	// round trips — so per-fetch latency, not transfer time, is the
	// dominant remote cost; that is the regime where read *count*
	// (physical locality's lever) decides restore time.
	remoteBandwidthMBps = 1000
	// remoteAssemblyMBps is the fixed client-side chunk-assembly rate
	// used by the restore-time model.
	remoteAssemblyMBps = 200
)

// RestoreSchemes are the restore contenders: the no-rewrite DDFS+FAA
// baseline (logical locality) vs HiDeStore (physical locality).
var RestoreSchemes = []string{"baseline", "hidestore"}

// RestoreSweepDepths are the swept prefetch depths: -1 disables
// prefetch entirely (the serial control row), 8 is the default
// read-ahead window.
var RestoreSweepDepths = []int{-1, 2, 8}

// RestoreSweepLatencies are the swept per-fetch round-trip latencies.
var RestoreSweepLatencies = []time.Duration{0, 200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond}

// RestoreScaleCell is one (scheme, depth, latency) outcome.
type RestoreScaleCell struct {
	Scheme    string
	Depth     int
	LatencyUS int64
	// Reads is the policy-level container-read count for the newest
	// restore — identical across a scheme's cells by the accounting
	// identity, enforced by the sweep driver.
	Reads int64
	// ReadMB is the payload actually pulled from the simulated remote.
	ReadMB      float64
	SpeedFactor float64
	ModeledMS   float64
}

// RestoreScaleResult holds the full sweep for one workload.
type RestoreScaleResult struct {
	Workload  string
	Depths    []int
	Latencies []time.Duration
	Cells     []RestoreScaleCell
	// Advantage[i] is baseline ModeledMS over HiDeStore ModeledMS at
	// Latencies[i], serial depth — the paper's payoff curve.
	Advantage []float64
	// Speedup[i] is HiDeStore's ModeledMS with prefetch off over
	// ModeledMS at the deepest swept depth, both at Latencies[i] —
	// read-ahead's payoff curve.
	Speedup []float64
	// CFL, Utilization and ContainersPerMB profile the newest version's
	// physical layout (internal/layout over an identically-built store),
	// so the BENCH snapshot ties the curves to the fragmentation state
	// they were measured against.
	CFL             float64
	Utilization     float64
	ContainersPerMB float64
	// AllocsPerChunk is heap allocations per restored chunk for the
	// newest version on a plain in-memory store, restored a second time: a
	// count of what the restore data path did, independent of the host's
	// speed, so CI can gate on it. Assembly copies from views of the
	// fetched images into span buffers the engine keeps between restores,
	// so it scales with containers, not chunks or spans.
	AllocsPerChunk float64
	// RecipeReadsOldest is the recipe reads of a cold restore of the
	// oldest version on the same store (RestoreReport.RecipesRead): its own
	// recipe plus every newer one its forward pointers led through. Exact,
	// so CI gates on it like the allocation count.
	RecipeReadsOldest float64
	// StoreReadsSweep is the container reads that reached storage in one
	// plain newest → oldest sweep right after the backups, on the backend
	// adapters with a system's cache attached (backend.CacheBudget): the
	// reads neither the resident active images nor the cache's decoded
	// images could serve. Exact, so CI gates on it.
	StoreReadsSweep float64
	// RecipeStoreReadsSweep is the recipe reads that reached storage in
	// the same sweep: the ones the cache's decoded recipes could not
	// serve. Exact, so CI gates on it.
	RecipeStoreReadsSweep float64
	// StoreReadsSweepCold and RecipeStoreReadsSweepCold are the same two
	// counts for the same sweep on a second engine opened over a store the
	// same backups wrote, state included: a new process, whose cache is
	// empty. A warm count of zero cannot regress in a percentage
	// gate; these can. Exact, so CI gates on them.
	StoreReadsSweepCold       float64
	RecipeStoreReadsSweepCold float64
}

// countingGets is a backend that counts the Gets that reach it. A
// restore reads concurrently, hence the atomic.
type countingGets struct {
	backend.Backend
	gets atomic.Uint64
}

// Get implements backend.Backend.
func (c *countingGets) Get(ctx context.Context, name string) ([]byte, error) {
	c.gets.Add(1)
	return c.Backend.Get(ctx, name)
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

// restoreEngine builds a scheme's engine over store with the given
// read-ahead depth.
func restoreEngine(o Options, w workload.Config, scheme string, store container.Store, depth int) (backup.Engine, error) {
	switch scheme {
	case "hidestore":
		cfg := hidestoreConfig(o, w)
		cfg.Store, cfg.PrefetchDepth = store, depth
		return core.New(cfg)
	case "baseline":
		cfg, err := baselineConfig(o, "ddfs", "none", "faa")
		if err != nil {
			return nil, err
		}
		cfg.Store, cfg.PrefetchDepth = store, depth
		return dedup.New(cfg)
	default:
		return nil, fmt.Errorf("experiments: unknown restore scheme %q", scheme)
	}
}

// backupChain backs every version up through e and returns the reports.
func backupChain(e backup.Engine, versions [][]byte) ([]backup.BackupReport, error) {
	reports := make([]backup.BackupReport, 0, len(versions))
	for v, data := range versions {
		rep, err := e.Backup(context.Background(), bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("backup v%d: %w", v+1, err)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// materialize generates every version of cfg's chain into memory.
func materialize(cfg workload.Config) ([][]byte, error) {
	var versions [][]byte
	err := forEachVersion(cfg, func(v int, r io.Reader) error {
		data, err := io.ReadAll(r)
		if err != nil {
			return err
		}
		versions = append(versions, data)
		return nil
	})
	return versions, err
}

// runRestoreScaleCell backs up the chain and restores the newest version
// with the container store behind a fresh remote simulator. The sweep
// prices storage reads, so every counted container must come from the
// remote: HiDeStore cells restore through VerifyRestore, because a plain
// restore serves the active containers from the engine's memory and the
// remote would see only the archival reads. The re-hash that adds is
// client CPU, which ModeledMS does not time; the reads, their bytes and
// their modeled cost are the plain restore's.
func runRestoreScaleCell(o Options, w workload.Config, versions [][]byte, scheme string, depth int, latency time.Duration) (RestoreScaleCell, error) {
	stack, sim, err := backend.NewStack(backend.NewMem(), backend.StackOptions{
		Sim: backend.SimOptions{
			Latency:      latency,
			BandwidthBps: remoteBandwidthMBps * (1 << 20),
			Seed:         1,
			SleepScale:   -1, // modeled time only: no real sleeps
		},
	})
	if err != nil {
		return RestoreScaleCell{}, err
	}
	e, err := restoreEngine(o, w, scheme, backend.NewContainerStore(stack, "", false), depth)
	if err != nil {
		return RestoreScaleCell{}, err
	}
	if _, err := backupChain(e, versions); err != nil {
		return RestoreScaleCell{}, err
	}
	restore := e.Restore
	if h, ok := e.(*core.Engine); ok {
		restore = h.VerifyRestore
	}
	before := sim.Stats()
	rep, err := restoreVerify(restore, len(versions), versions[len(versions)-1])
	if err != nil {
		return RestoreScaleCell{}, err
	}
	after := sim.Stats()

	reads := int64(rep.Stats.ContainerReads)
	restoredMB := float64(rep.Stats.BytesRestored) / (1 << 20)
	remoteMS := float64((after.Modeled - before.Modeled).Microseconds()) / 1e3
	return RestoreScaleCell{
		Scheme:      scheme,
		Depth:       depth,
		LatencyUS:   latency.Microseconds(),
		Reads:       reads,
		ReadMB:      float64(after.Bytes-before.Bytes) / (1 << 20),
		SpeedFactor: rep.Stats.SpeedFactor(),
		ModeledMS: restoredMB/remoteAssemblyMBps*1e3 +
			remoteMS/effectiveFetchParallelism(depth, reads),
	}, nil
}

// RestoreScale runs the scheme × depth × latency sweep for one workload,
// then takes the layout profile and the exact restore counts from
// HiDeStore on a plain in-memory store.
func RestoreScale(workloadName string, opts Options) (*RestoreScaleResult, error) {
	opts = opts.withDefaults()
	cfg, err := opts.loadWorkload(workloadName)
	if err != nil {
		return nil, err
	}
	versions, err := materialize(cfg)
	if err != nil {
		return nil, err
	}
	res := &RestoreScaleResult{
		Workload:  cfg.Name,
		Depths:    RestoreSweepDepths,
		Latencies: RestoreSweepLatencies,
	}
	for _, scheme := range RestoreSchemes {
		for _, depth := range RestoreSweepDepths {
			for _, g := range RestoreSweepLatencies {
				cell, err := runRestoreScaleCell(opts, cfg, versions, scheme, depth, g)
				if err != nil {
					return nil, fmt.Errorf("%s depth=%d latency=%s: %w", scheme, depth, g, err)
				}
				res.Cells = append(res.Cells, cell)
			}
		}
	}
	serial := RestoreSweepDepths[0]
	deepest := RestoreSweepDepths[len(RestoreSweepDepths)-1]
	// The accounting identity, enforced: neither depth nor latency may
	// change what gets read.
	for _, c := range res.Cells {
		if want := res.Cell(c.Scheme, serial, 0).Reads; c.Reads != want {
			return nil, fmt.Errorf("experiments: %s depth=%d us=%d read %d containers, serial read %d — prefetch changed the read count",
				c.Scheme, c.Depth, c.LatencyUS, c.Reads, want)
		}
	}
	for _, g := range RestoreSweepLatencies {
		base := res.Cell("baseline", serial, g)
		off := res.Cell("hidestore", serial, g)
		deep := res.Cell("hidestore", deepest, g)
		res.Advantage = append(res.Advantage, base.ModeledMS/off.ModeledMS)
		res.Speedup = append(res.Speedup, off.ModeledMS/deep.ModeledMS)
	}

	// A plain in-memory store (deterministic chunking makes it
	// byte-identical to every cell's store) and no registry: the counts
	// below are the engine's own.
	plain := opts
	plain.Metrics = nil
	mem, err := hidestoreEngine(plain, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := backupChain(mem, versions); err != nil {
		return nil, fmt.Errorf("layout profile: %w", err)
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
	// every HiDeStore cell's — a cheap re-check of the exactness guarantee
	// from a second, independently-built store.
	if got, want := int64(prof.Policies[0].ContainerReads), res.Cell("hidestore", serial, 0).Reads; got != want {
		return nil, fmt.Errorf("experiments: layout analyzer simulated %d container reads, restores measured %d — the exact-identity guarantee broke",
			got, want)
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

	// Each sweep on a store of its own, so it starts with no restore
	// before it.
	if res.StoreReadsSweep, res.RecipeStoreReadsSweep, err = sweepStoreReads(plain, cfg, versions, false); err != nil {
		return nil, err
	}
	if res.StoreReadsSweepCold, res.RecipeStoreReadsSweepCold, err = sweepStoreReads(plain, cfg, versions, true); err != nil {
		return nil, err
	}
	return res, nil
}

// sweepStoreReads backs versions up on a HiDeStore engine over memory
// backends, through adapters sharing one cache as a system's do, and
// restores them newest → oldest, on that engine or, with reopened set, on
// a second one with a cache of its own. It returns the sweep's container
// and recipe Gets that reached the backends.
func sweepStoreReads(o Options, cfg workload.Config, versions [][]byte, reopened bool) (containers, recipes float64, err error) {
	cb, rb := &countingGets{Backend: backend.NewMem()}, &countingGets{Backend: backend.NewMem()}
	sweepCfg := hidestoreConfig(o, cfg)
	sweepCfg.State = backend.NewMem()
	open := func() (*core.Engine, error) {
		cache := backend.NewCache(backend.CacheBudget)
		sweepCfg.Store = backend.NewContainerStore(cb, "", false).Cached(cache)
		sweepCfg.Recipes = backend.NewRecipeStore(rb).Cached(cache)
		return core.New(sweepCfg)
	}
	e, err := open()
	if err != nil {
		return 0, 0, err
	}
	if _, err := backupChain(e, versions); err != nil {
		return 0, 0, fmt.Errorf("store read sweep: %w", err)
	}
	if reopened {
		if e, err = open(); err != nil {
			return 0, 0, fmt.Errorf("store read sweep: reopen: %w", err)
		}
	}
	cb.gets.Store(0) // the backups' reads, and the reopened engine's recovery
	rb.gets.Store(0)
	for v := len(versions); v >= 1; v-- {
		if _, err := restoreVerify(e.Restore, v, versions[v-1]); err != nil {
			return 0, 0, fmt.Errorf("store read sweep restore v%d: %w", v, err)
		}
	}
	return float64(cb.gets.Load()), float64(rb.gets.Load()), nil
}

// restoreAllocsPerChunk restores one version into a discarding sink twice
// and returns the heap allocations the second restore made per chunk
// restored. The first fills what an engine keeps for every later restore
// — on more than one CPU, the parallel assembler's span pool (at most
// 2·width + 3 spans, allocated once per engine).
func restoreAllocsPerChunk(e *core.Engine, version int) (float64, error) {
	runtime.GC()
	if _, err := e.Restore(context.Background(), version, io.Discard); err != nil {
		return 0, fmt.Errorf("allocation count warm-up restore v%d: %w", version, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := e.Restore(context.Background(), version, io.Discard)
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, fmt.Errorf("allocation count restore v%d: %w", version, err)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(rep.Stats.Chunks), nil
}

// Cell returns the cell for (scheme, depth, latency), or nil.
func (r *RestoreScaleResult) Cell(scheme string, depth int, latency time.Duration) *RestoreScaleCell {
	us := latency.Microseconds()
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Scheme == scheme && c.Depth == depth && c.LatencyUS == us {
			return c
		}
	}
	return nil
}

// Extras exposes the sweep as flat scalars for BENCH_restore.json: the
// advantage and speedup curves, the layout profile, and per-cell reads
// and modeled times keyed by scheme, depth and latency in microseconds.
func (r *RestoreScaleResult) Extras() map[string]float64 {
	out := map[string]float64{
		"cfl":               r.CFL,
		"utilization":       r.Utilization,
		"containers_per_mb": r.ContainersPerMB,
	}
	for i, g := range r.Latencies {
		out[fmt.Sprintf("advantage_us%d", g.Microseconds())] = r.Advantage[i]
		out[fmt.Sprintf("speedup_us%d", g.Microseconds())] = r.Speedup[i]
	}
	for _, c := range r.Cells {
		key := fmt.Sprintf("%s_depth%d_us%d", c.Scheme, c.Depth, c.LatencyUS)
		out["modeled_ms_"+key] = c.ModeledMS
		out["reads_"+key] = float64(c.Reads)
	}
	return out
}

// Render formats the sweep and both curves.
func (r *RestoreScaleResult) Render() string {
	t := metrics.NewTable(fmt.Sprintf("Restore over a remote store (%s): scheme x prefetch depth x fetch latency", r.Workload),
		"scheme", "depth", "latency", "reads", "read MB", "SF", "modeled ms")
	for _, c := range r.Cells {
		t.AddRow(c.Scheme,
			fmt.Sprintf("%d", c.Depth),
			(time.Duration(c.LatencyUS) * time.Microsecond).String(),
			fmt.Sprintf("%d", c.Reads),
			metrics.FormatFloat(c.ReadMB),
			metrics.FormatFloat(c.SpeedFactor),
			metrics.FormatFloat(c.ModeledMS))
	}
	s := t.Render()
	s += "\nmodeled restore advantage (baseline/hidestore, serial):"
	for i, g := range r.Latencies {
		s += fmt.Sprintf(" %s=%.2fx", g, r.Advantage[i])
	}
	s += "\nmodeled read-ahead speedup (hidestore, prefetch off / deepest prefetch):"
	for i, g := range r.Latencies {
		s += fmt.Sprintf(" %s=%.2fx", g, r.Speedup[i])
	}
	s += fmt.Sprintf("\nnewest-version layout: CFL %.3f, utilization %.1f%%, %.3f containers/MB\n",
		r.CFL, r.Utilization*100, r.ContainersPerMB)
	s += fmt.Sprintf("restore allocations: %.3f per chunk\n", r.AllocsPerChunk)
	s += fmt.Sprintf("oldest version, cold: %.0f recipe reads\n", r.RecipeReadsOldest)
	s += fmt.Sprintf("newest → oldest sweep: %.0f store reads, %.0f recipe store reads (%.0f and %.0f on a reopened engine)\n",
		r.StoreReadsSweep, r.RecipeStoreReadsSweep, r.StoreReadsSweepCold, r.RecipeStoreReadsSweepCold)
	return s
}
