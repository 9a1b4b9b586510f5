package backup

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hidestore/internal/backend"
	"hidestore/internal/container"
	"hidestore/internal/layout"
	"hidestore/internal/obs"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
)

// RestoreDriver is the read path both engines share: from a stored recipe
// to bytes in the caller's writer, with the span, metrics and report
// written once. An engine fixes it at construction and supplies only how
// its recipes resolve to container locations.
//
// The driver builds the only fetcher that reads Store or Resident for a
// version (source), and a restore stacks the policy's counting layer on
// it, so no engine has a way to read a container the restore's
// Stats.ContainerReads does not see. TestStoreReadsEqualCountedReads pins
// the identity exactly: store reads plus resident reads equal counted
// reads, for every policy (DESIGN.md, "Restore driver").
type RestoreDriver struct {
	// Recipes persists the engine's recipes, and Store the containers the
	// resolved recipes name. A verifying restore reads both through their
	// uncached views (backend.UncachedContainers, UncachedRecipes).
	Recipes recipe.Store
	Store   container.Store
	// Resident, when set, returns the engine's in-memory image of a
	// container, or nil when it holds none. A restore asks it before the
	// store and reads nothing from the store for an image it returns; a
	// verifying restore never asks it. The image must hold exactly the
	// chunks the resolved recipes find in it and stay unmodified until
	// the restore returns.
	Resident func(container.ID) *container.Container
	// ContainerCapacity is the engine's container size, the unit of
	// AnalyzeLayout's optimal container count.
	ContainerCapacity int
	// Cache decides which containers are read and kept — the single
	// decision-maker at any assembly width.
	Cache restorecache.Cache
	// PrefetchDepth is the read-ahead window (and fetch width): 0 selects
	// restorecache.DefaultPrefetchDepth, negative reads serially. The
	// engines pass their own PrefetchDepth, which hidestore.Open leaves
	// at 0. Metrics and Tracer are their bundles (nil: off).
	PrefetchDepth int
	Metrics       *obs.RestoreMetrics
	Tracer        *obs.Tracer

	// spans keeps the parallel assembler, span buffers included, from one
	// of this driver's restores to the next.
	spans restorecache.SpanPool
}

// maxAssemblyWidth caps the parallel assembler's span workers, and with
// them the reorder window's memory (2·width + 2 spans, ≈ 10 MB at 4).
// Widths past two are unmeasured: the reference host has two CPUs.
const maxAssemblyWidth = 4

// assemblyWidth is how many span workers a restore assembles with: one
// per CPU the runtime schedules on, up to maxAssemblyWidth. At 1 the
// serial assembler runs instead: on one CPU nothing overlaps a worker's
// copy and the writer then reads the span back cache-cold, so serial is
// faster there (DESIGN.md, "Parallel restore").
func assemblyWidth() int {
	return min(runtime.GOMAXPROCS(0), maxAssemblyWidth)
}

// Resolution is an engine's answer to the driver's resolve hook: the
// recipe as the reference stream the policy replays, and what finding it
// took.
type Resolution struct {
	// Entries is the reference stream: the recipe's entries, every CID
	// positive. A hook rewrites only entries whose stored CID is zero or
	// negative: every positive CID stands where the stored recipe has it.
	// Restore relies on that when it starts reading the archival images
	// the stored recipe names before the hook runs: each of those reads is
	// the first store read of its image the policy makes anyway.
	Entries []recipe.Entry
	// Wanted counts the chunks whose location no state the engine holds
	// could give, and RecipesRead the newer recipes it read to find them.
	// Both are zero when the recipe resolved without a read, and both are
	// exact: a function of the stored recipes, not of timing.
	Wanted, RecipesRead int
	// Patched, when non-nil, is the recipe with those locations filled in.
	// Restore writes it back while the containers are fetched, so the
	// search is paid once per version, and fails if the write does.
	Patched *recipe.Recipe
}

// AnalyzeLayout reports version's physical-locality profile from the
// reference stream Restore would replay, over the images Restore would
// read (see layout.Analyze). It emits no trace record, updates no metric
// and writes nothing back, whatever the hook returns in Patched.
func (d *RestoreDriver) AnalyzeLayout(ctx context.Context, version int, policies []string,
	resolve func(context.Context, *recipe.Recipe) (Resolution, error)) (*layout.Report, error) {
	rec, err := d.Recipes.Get(version)
	if err != nil {
		return nil, err
	}
	entries := rec.Entries
	if resolve != nil {
		res, err := resolve(ctx, rec)
		if err != nil {
			return nil, err
		}
		entries = res.Entries
	}
	return layout.Analyze(ctx, version, entries, d.source(false), d.ContainerCapacity, policies)
}

// sourceFetcher is the bottom of every fetcher stack: the engine's
// resident image, or a read of the store. Resident reads are counted
// here, below read-ahead, so a restore's store reads plus resident reads
// are every read that reached the bottom of its stack.
type sourceFetcher struct {
	store restorecache.Fetcher
	// resident is the engine's Resident hook; nil for a verifying restore,
	// which reads only the store.
	resident func(container.ID) *container.Container
	// early holds the store reads Restore started from the stored recipe
	// before resolving it (readEarly), each handed to the first Get of its
	// ID and removed; reading counts them until they finish.
	early   map[container.ID]*earlyRead
	reading sync.WaitGroup
	mu      sync.Mutex
	reads   atomic.Uint64 // images served resident
}

// earlyRead is one store read started before the policy asked for it.
type earlyRead struct {
	done chan struct{}
	c    *container.Container
	err  error
}

// Get implements restorecache.Fetcher.
func (f *sourceFetcher) Get(ctx context.Context, id container.ID) (*container.Container, error) {
	if f.resident != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if c := f.resident(id); c != nil {
			f.reads.Add(1)
			return c, nil
		}
	}
	if r := f.takeEarly(id); r != nil {
		<-r.done
		return r.c, r.err
	}
	return f.store.Get(ctx, id)
}

// takeEarly removes and returns the early read of id, or nil.
func (f *sourceFetcher) takeEarly(id container.ID) *earlyRead {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.early[id]
	if r != nil {
		delete(f.early, id)
	}
	return r
}

// readEarly starts store reads of the archival images rec names directly,
// in first-appearance order, that are not resident, up to
// restorecache.DefaultPrefetchDepth of them; f.reading.Wait waits for
// every one. It runs before any Get. Resolve keeps every positive CID
// (Resolution), so each read is the first store read of its image the
// policy makes; Get hands it over instead of reading again. store.Get
// takes no context, so a read in flight can only be awaited.
func (f *sourceFetcher) readEarly(ctx context.Context, rec *recipe.Recipe) {
	for _, e := range rec.Entries {
		if len(f.early) == restorecache.DefaultPrefetchDepth {
			break
		}
		id := container.ID(e.CID)
		if e.CID <= 0 || f.early[id] != nil || (f.resident != nil && f.resident(id) != nil) {
			continue
		}
		if f.early == nil {
			f.early = make(map[container.ID]*earlyRead, restorecache.DefaultPrefetchDepth)
		}
		r := &earlyRead{done: make(chan struct{})}
		f.early[id] = r
		f.reading.Add(1)
		go func() {
			defer f.reading.Done()
			defer close(r.done)
			r.c, r.err = f.store.Get(ctx, id)
		}()
	}
}

// source is the one fetcher that reads Store or Resident for a version.
// With verify set it reads only the store's uncached view and re-hashes
// what it returns: a scrub-on-read checks the stored bytes, not memory.
// Restore stacks read-ahead, the observed layer and the policy's counting
// layer on it; AnalyzeLayout loads each image it names through it once.
func (d *RestoreDriver) source(verify bool) *sourceFetcher {
	if verify {
		return &sourceFetcher{store: restorecache.NewVerifyingFetcher(restorecache.StoreFetcher(backend.UncachedContainers(d.Store)))}
	}
	return &sourceFetcher{store: restorecache.StoreFetcher(d.Store), resident: d.Resident}
}

// readRecipe is the front of every restore: version's recipe — from the
// store's uncached view for a verifying restore — recorded under span.
func (d *RestoreDriver) readRecipe(version int, span *obs.Span, verify bool) (*recipe.Recipe, error) {
	start := time.Now()
	recipes := d.Recipes
	if verify {
		recipes = backend.UncachedRecipes(recipes)
	}
	rec, err := recipes.Get(version)
	if err != nil {
		return nil, err
	}
	if d.Metrics != nil {
		d.Metrics.RecipeReadNS.Observe(uint64(time.Since(start)))
	}
	if d.Tracer != nil {
		d.Tracer.EmitStage("recipe.read", span, start, time.Since(start), map[string]int64{"version": int64(version)})
	}
	return rec, nil
}

// resolve runs the engine's hook over rec and records a resolution that
// had to look chunks up under span, returning its duration (zero when
// none was needed).
func (d *RestoreDriver) resolve(ctx context.Context, rec *recipe.Recipe, span *obs.Span,
	hook func(context.Context, *recipe.Recipe) (Resolution, error)) (Resolution, time.Duration, error) {
	start := time.Now()
	res, err := hook(ctx, rec)
	if err != nil || res.Wanted == 0 {
		return res, 0, err
	}
	dur := time.Since(start)
	written := 0
	if res.Patched != nil {
		written = 1
	}
	if d.Metrics != nil {
		d.Metrics.FlattenNS.Observe(uint64(dur))
	}
	if d.Tracer != nil {
		d.Tracer.EmitStage("recipe.flatten", span, start, dur, map[string]int64{
			"version":         int64(rec.Version),
			"wanted":          int64(res.Wanted),
			"recipes_read":    int64(res.RecipesRead),
			"recipes_written": int64(written),
		})
	}
	return res, dur, nil
}

// Restore reassembles version into w. With verify set it is a
// scrub-on-read: every chunk of every container read is re-hashed against
// its fingerprint, and a mismatch fails the restore. resolve turns the
// recipe as stored (the hook may modify it; it is the driver's own copy)
// into the reference stream; the time of a resolution that had to look
// chunks up is reported separately, as RecipeUpdateDuration and a
// recipe.flatten trace record. A nil resolve means the recipe already is
// that stream. A plain restore with read-ahead on and a hook to wait for
// starts reading the archival images the stored recipe names while the
// hook runs (readEarly); every such read is joined before Restore returns.
func (d *RestoreDriver) Restore(ctx context.Context, version int, w io.Writer, verify bool,
	resolve func(context.Context, *recipe.Recipe) (Resolution, error)) (rep RestoreReport, retErr error) {
	start := time.Now()
	span := d.Tracer.Start("restore", nil)
	// Deferred so every early return — recipe read failure, resolve
	// failure, an unresolved chunk, the cache's restore error — still
	// closes the span; failures carry an error attr.
	defer func() {
		if retErr != nil {
			span.SetAttr("error", 1)
		}
		span.End()
	}()
	rec, err := d.readRecipe(version, span, verify)
	if err != nil {
		return RestoreReport{}, err
	}
	src := d.source(verify)
	res, resolveDur := Resolution{Entries: rec.Entries}, time.Duration(0)
	if resolve != nil {
		if !verify && d.PrefetchDepth >= 0 {
			defer src.reading.Wait()
			src.readEarly(ctx, rec)
		}
		if res, resolveDur, err = d.resolve(ctx, rec, span, resolve); err != nil {
			return RestoreReport{}, err
		}
	}
	recipesRead := uint64(1 + res.RecipesRead)
	if d.Metrics != nil {
		d.Metrics.RecipeReads.Add(recipesRead)
	}
	if res.Patched != nil {
		// The write-back rides under the container fetch: nothing below
		// reads the stored recipe. Joined on every path out, after the
		// prefetcher has stopped and before the span closes.
		stored := make(chan error, 1)
		go func() { stored <- d.Recipes.Put(res.Patched) }()
		defer func() {
			if err := <-stored; err != nil && retErr == nil {
				rep, retErr = RestoreReport{}, fmt.Errorf("restore v%d: write back resolved recipe: %w", version, err)
			}
		}()
	}
	// The observed fetcher sits *above* the prefetch layer — the same
	// position as the policy's countingFetcher — so the trace's
	// container.fetch span count, the registry counter and the run's
	// Stats.ContainerReads are equal by construction. The prefetcher's
	// fetch stage runs as wide as its window, and on more than one CPU the
	// policy's output is routed through the parallel out-of-order
	// assembler; neither changes which containers the policy requests, so
	// the identity holds at any depth and width.
	fetch, done := restorecache.MaybePrefetch(src, res.Entries, d.PrefetchDepth, d.Metrics)
	defer done()
	fetch = restorecache.ObserveFetcher(fetch, d.Metrics, d.Tracer, span)
	out := w
	if width := assemblyWidth(); width > 1 {
		out = restorecache.NewParallelWriter(w, restorecache.ParallelOptions{
			Workers: width,
			Spans:   &d.spans,
			Metrics: d.Metrics,
			Tracer:  d.Tracer,
			Span:    span,
		})
	}
	stats, err := d.Cache.Restore(ctx, res.Entries, fetch, out)
	if err != nil {
		return RestoreReport{}, err
	}
	// Joined first, so a read-ahead fetch still in flight is either
	// counted or never happened.
	done()
	resident := src.reads.Load()
	if d.Metrics != nil {
		d.Metrics.Restores.Inc()
		d.Metrics.BytesRestored.Add(stats.BytesRestored)
		d.Metrics.CacheHits.Add(stats.CacheHits)
		d.Metrics.Chunks.Add(stats.Chunks)
		d.Metrics.ResidentReads.Add(resident)
	}
	span.SetAttr("version", int64(version))
	span.SetAttr("bytes", int64(stats.BytesRestored))
	span.SetAttr("container_reads", int64(stats.ContainerReads))
	span.SetAttr("resident_reads", int64(resident))
	return RestoreReport{
		Version:              version,
		Stats:                stats,
		Duration:             time.Since(start),
		RecipeUpdateDuration: resolveDur,
		RecipesRead:          recipesRead,
		ResidentReads:        resident,
	}, nil
}
