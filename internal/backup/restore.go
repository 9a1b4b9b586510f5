package backup

import (
	"context"
	"io"
	"time"

	"hidestore/internal/obs"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
)

// RestoreDriver is the read path both engines share: from a stored recipe
// to bytes in the caller's writer, with the span, metrics and report
// written once. An engine fixes it at construction and supplies only how
// its recipes resolve to container locations.
type RestoreDriver struct {
	Recipes recipe.Store
	// Cache decides which containers are read and kept — the single
	// decision-maker at any worker count.
	Cache restorecache.Cache
	// PrefetchDepth and Workers are the engines' Config.PrefetchDepth and
	// Config.RestoreWorkers; Metrics and Tracer their bundles (nil: off).
	PrefetchDepth int
	Workers       int
	Metrics       *obs.RestoreMetrics
	Tracer        *obs.Tracer
}

// Restore reassembles version into w, reading containers through fetch —
// the plain store for a restore, a verifying wrapper for a scrub-on-read.
// resolve turns the recipe as stored into the reference stream the policy
// replays, every CID positive, and reports whether it had to flatten the
// recipe chain to get there (timed separately, as RecipeUpdateDuration);
// nil means the recipe already is that stream.
func (d *RestoreDriver) Restore(ctx context.Context, version int, w io.Writer, fetch restorecache.Fetcher,
	resolve func(*recipe.Recipe) (entries []recipe.Entry, flattened bool, err error)) (rep RestoreReport, retErr error) {
	start := time.Now()
	span := d.Tracer.Start("restore", nil)
	// Deferred so every early return — recipe read failure, flatten
	// failure, an unresolved chunk, the cache's restore error — still
	// closes the span; failures carry an error attr.
	defer func() {
		if retErr != nil {
			span.SetAttr("error", 1)
		}
		span.End()
	}()
	rec, err := d.Recipes.Get(version)
	if err != nil {
		return RestoreReport{}, err
	}
	if d.Metrics != nil {
		d.Metrics.RecipeReadNS.Observe(uint64(time.Since(start)))
	}
	if d.Tracer != nil {
		d.Tracer.EmitStage("recipe.read", span, start, time.Since(start), map[string]int64{"version": int64(version)})
	}
	entries := rec.Entries
	var flattenDur time.Duration
	if resolve != nil {
		flattenStart := time.Now()
		var flattened bool
		if entries, flattened, err = resolve(rec); err != nil {
			return RestoreReport{}, err
		}
		if flattened {
			flattenDur = time.Since(flattenStart)
			if d.Metrics != nil {
				d.Metrics.FlattenNS.Observe(uint64(flattenDur))
			}
			if d.Tracer != nil {
				d.Tracer.EmitStage("recipe.flatten", span, flattenStart, flattenDur,
					map[string]int64{"version": int64(version)})
			}
		}
	}
	// The observed fetcher sits *above* the prefetch layer — the same
	// position as the policy's countingFetcher — so the trace's
	// container.fetch span count, the registry counter and the run's
	// Stats.ContainerReads are equal by construction. The prefetcher's
	// fetch stage runs Workers wide (bounded by the window), and with
	// Workers > 1 the policy's output is routed through the parallel
	// out-of-order assembler; neither changes which containers the policy
	// requests, so the identity holds at any worker count.
	fetch, done := restorecache.MaybePrefetch(fetch, entries, d.PrefetchDepth, d.Workers, d.Metrics)
	defer done()
	fetch = restorecache.ObserveFetcher(fetch, d.Metrics, d.Tracer, span)
	out := w
	if d.Workers > 1 {
		out = restorecache.NewParallelWriter(w, restorecache.ParallelOptions{
			Workers: d.Workers,
			Metrics: d.Metrics,
			Tracer:  d.Tracer,
			Span:    span,
		})
	}
	stats, err := d.Cache.Restore(ctx, entries, fetch, out)
	if err != nil {
		return RestoreReport{}, err
	}
	if d.Metrics != nil {
		d.Metrics.Restores.Inc()
		d.Metrics.BytesRestored.Add(stats.BytesRestored)
		d.Metrics.CacheHits.Add(stats.CacheHits)
		d.Metrics.Chunks.Add(stats.Chunks)
	}
	span.SetAttr("version", int64(version))
	span.SetAttr("bytes", int64(stats.BytesRestored))
	span.SetAttr("container_reads", int64(stats.ContainerReads))
	return RestoreReport{
		Version:              version,
		Stats:                stats,
		Duration:             time.Since(start),
		RecipeUpdateDuration: flattenDur,
	}, nil
}
