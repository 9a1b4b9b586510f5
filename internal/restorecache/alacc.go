package restorecache

import (
	"bytes"
	"context"
	"io"

	"hidestore/internal/container"
	"hidestore/internal/fp"
	"hidestore/internal/lru"
	"hidestore/internal/recipe"
)

// Options configures ALACC.
type Options struct {
	// AreaBytes is the forward assembly area size (default 32 MB).
	AreaBytes int
	// CacheBytes is the chunk cache budget (default 32 MB).
	CacheBytes int64
	// LookAheadBytes is how far past the current area the look-ahead
	// window extends (default 64 MB).
	LookAheadBytes int
	// Adaptive enables shifting budget between the assembly area and the
	// chunk cache based on observed hit rates (default true; set
	// DisableAdaptive to turn off).
	DisableAdaptive bool
}

func (o *Options) setDefaults() {
	if o.AreaBytes <= 0 {
		o.AreaBytes = 32 << 20
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 32 << 20
	}
	if o.LookAheadBytes <= 0 {
		o.LookAheadBytes = 64 << 20
	}
}

// ALACC implements Adaptive Look-Ahead Chunk Caching (Cao et al.,
// FAST'18), the strongest restore baseline in the paper's evaluation
// (§5.3). It extends FAA in two ways:
//
//  1. a chunk cache holds chunks from previously fetched containers, so an
//     area can be partially assembled without re-reading containers; and
//  2. a look-ahead window past the current area decides *which* chunks of
//     a fetched container deserve caching — only chunks referenced again
//     within the window are kept, so the budget is not wasted on dead
//     chunks (the fragmentation problem makes most chunks dead weight).
//
// The adaptive part rebalances bytes between the assembly area and the
// chunk cache: frequent cache hits grow the cache, scarce hits grow the
// area. This reproduces the published design at the level of fidelity the
// paper's own re-implementation used.
type ALACC struct {
	opts Options
}

var _ Cache = (*ALACC)(nil)

// NewALACC returns an ALACC restorer.
func NewALACC(opts Options) *ALACC {
	opts.setDefaults()
	return &ALACC{opts: opts}
}

// Name implements Cache.
func (a *ALACC) Name() string { return "alacc" }

// Restore implements Cache.
func (a *ALACC) Restore(ctx context.Context, entries []recipe.Entry, fetch Fetcher, w io.Writer) (Stats, error) {
	return run(ctx, entries, fetch, w, a.restore)
}

// restore keeps ALACC's two-pass area structure — all of an area's
// cache lookups strictly precede its fetches and insertions, so the
// cache's recency state and the fetch sequence are identical to the
// buffered implementation — but defers the chunk copies: pass 1
// records hit payloads, pass 2 fetches and cache-inserts, and a final
// walk emits the area in stream order through the assembler.
func (a *ALACC) restore(ctx context.Context, entries []recipe.Entry, counted Fetcher, stats *Stats, asm assembler) error {
	cache, err := lru.New[fp.FP, []byte](a.opts.CacheBytes)
	if err != nil {
		return err
	}
	areaBytes := a.opts.AreaBytes
	pos := 0
	var areaHits, areaMisses uint64
	for pos < len(entries) {
		slots := carveArea(entries, &pos, areaBytes)

		// Build the look-ahead reference set: fingerprints needed within
		// LookAheadBytes after the area.
		lookahead := make(map[fp.FP]struct{})
		la := 0
		for i := pos; i < len(entries) && la < a.opts.LookAheadBytes; i++ {
			lookahead[entries[i].FP] = struct{}{}
			la += int(entries[i].Size)
		}

		// Pass 1: serve slots from the chunk cache.
		hit := make([]bool, len(slots))
		fill := make([][]byte, len(slots))
		unfilled := make(map[container.ID][]int)
		order := make([]container.ID, 0, 8)
		for i, e := range slots {
			if data, ok := cache.Get(e.FP); ok {
				hit[i], fill[i] = true, data
				stats.CacheHits++
				stats.Chunks++
				areaHits++
				continue
			}
			areaMisses++
			id := container.ID(e.CID)
			if _, seen := unfilled[id]; !seen {
				order = append(order, id)
			}
			unfilled[id] = append(unfilled[id], i)
		}
		// Pass 2: one read per remaining container.
		ctns := make(map[container.ID]*container.Container, len(order))
		for _, id := range order {
			if err := ctx.Err(); err != nil {
				return err
			}
			ctn, err := counted.Get(ctx, id)
			if err != nil {
				return err
			}
			ctns[id] = ctn
			stats.CacheHits += uint64(len(unfilled[id]) - 1)
			stats.Chunks += uint64(len(unfilled[id]))
			// Look-ahead insertion: cache only the fetched container's
			// chunks that the window will need again (whether or not this
			// area uses them too), as copies: a view would pin the image.
			payload := ctn.Payload()
			for _, ce := range ctn.Entries() {
				if _, again := lookahead[ce.FP]; again {
					cache.Add(ce.FP, bytes.Clone(payload[ce.Offset:ce.Offset+ce.Size]), int64(ce.Size))
				}
			}
		}
		// Emission: the area in stream order, cache hits and fetched
		// containers interleaved.
		for i, e := range slots {
			var err error
			if hit[i] {
				err = asm.cached(fill[i], e)
			} else {
				err = asm.chunk(ctns[container.ID(e.CID)], e)
			}
			if err != nil {
				return err
			}
		}

		// Adaptation: rebalance area vs cache budget every area using the
		// observed hit ratio.
		if !a.opts.DisableAdaptive && areaHits+areaMisses > 0 {
			hitRate := float64(areaHits) / float64(areaHits+areaMisses)
			const step = 4 << 20
			minBytes := a.opts.AreaBytes / 4
			switch {
			case hitRate > 0.5 && areaBytes-step >= minBytes:
				// The cache is earning: shift budget toward it.
				areaBytes -= step
			case hitRate < 0.1 && int(cache.Capacity())-step >= int(a.opts.CacheBytes)/4:
				// The cache is idle: grow the assembly area instead.
				areaBytes += step
			}
			areaHits, areaMisses = 0, 0
		}
	}
	return nil
}
