package restorecache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"hidestore/internal/container"
	"hidestore/internal/obs"
	"hidestore/internal/pipeline"
	"hidestore/internal/recipe"
)

// DefaultPrefetchDepth is the read-ahead window, in distinct containers,
// used when a prefetch depth of 0 is requested.
const DefaultPrefetchDepth = 8

// PrefetchFetcher overlaps container reads with chunk assembly. The
// resolved recipe discloses the whole future access sequence, so the
// prefetcher derives the distinct-container order up front (each cache
// policy's first fetch of any container happens in first-appearance
// order — see the invariant note below) and a worker pool as wide as the
// read-ahead window issues those reads ahead of the assembler. Results
// flow back through a bounded in-order queue, so at most `depth` reads
// run ahead of consumption.
//
// Accounting invariant (§5.3): Stats.ContainerReads and the speed factor
// are defined by *which* containers the cache policy requests, not when.
// The prefetcher therefore only accelerates reads the policy issues
// anyway: every planned container is fetched exactly once and handed
// over on the policy's first request for it, and any request outside the
// plan — a re-read after eviction, or FAA re-reading a container in a
// later area — falls through to a direct read, exactly as it would
// serially. Counting happens above this layer (countingFetcher), so
// ContainerReads is identical with prefetch on or off.
//
// The first-appearance argument assumes the policy requests every
// planned container. A chunk-caching policy may not when a fingerprint
// has copies in several containers it reads — a rewriting baseline's
// duplicate, or a migrated chunk's stale copy in a stored HiDeStore
// active image, which only a verifying restore reads: the cache can
// serve a later entry from the copy it holds and skip the container the
// plan names. The restore stays byte-correct and ContainerReads counts
// only what the policy requested, but the skipped container's read has
// already reached the store. A plain restore reads no such copy on
// either engine without a rewriter (resident active images hold live
// chunks only); TestStoreReadsEqualCountedReads in internal/backup pins
// store reads == counted reads for both engines at every policy,
// read-ahead depth and assembly width.
//
// Get must be called from a single goroutine (the cache policy); Close
// releases the worker pool and is safe to call even if Get never ran.
type PrefetchFetcher struct {
	inner   Fetcher
	plan    []container.ID
	planned map[container.ID]bool
	// pos maps each planned container to its plan index. First requests
	// arrive in plan order, so once the request for plan position k is
	// served, any stashed item at an earlier position was skipped by the
	// policy (its chunks were all satisfied from cache) and will never be
	// requested — Get drains those at handover instead of stranding them
	// in stash with their window occupancy held until Close.
	pos   map[container.ID]int
	depth int

	start   sync.Once
	cancel  context.CancelFunc
	group   *pipeline.Group
	pipeCtx context.Context
	queue   chan *prefetchItem
	// stash holds queue items popped while searching for an earlier
	// request; keys are container IDs not yet consumed.
	stash map[container.ID]*prefetchItem

	// mx, when set, exposes the read-ahead window's live occupancy:
	// incremented by the dispatcher as items enter the window,
	// decremented as the policy consumes them (outstanding tracks the
	// balance so Close can zero the gauge on an aborted restore).
	mx          *obs.RestoreMetrics
	outstanding atomic.Int64
}

// fetchOutcome is one completed (or failed) container read.
type fetchOutcome struct {
	ctn *container.Container
	err error
}

// Item states: a worker must take the item before touching the
// backend, and an awaiter that finds the pipeline dead must abandon it
// before reading through — the CAS decides which side performs the
// read, so it happens exactly once.
const (
	itemIdle      int32 = iota // dispatched; no worker has picked it up
	itemTaken                  // a worker owns it and will deliver exactly one outcome
	itemAbandoned              // the awaiter read through; workers must skip it
)

// prefetchItem tracks one planned read; ch has capacity 1 so workers
// never block delivering.
type prefetchItem struct {
	id    container.ID
	ch    chan fetchOutcome
	state atomic.Int32
}

// tryTake claims the item for a worker fetch.
func (it *prefetchItem) tryTake() bool { return it.state.CompareAndSwap(itemIdle, itemTaken) }

// abandon claims the item for an awaiter read-through.
func (it *prefetchItem) abandon() bool { return it.state.CompareAndSwap(itemIdle, itemAbandoned) }

// NewPrefetchFetcher plans read-ahead over the resolved entries: the
// distinct containers in first-appearance order. depth <= 0 selects
// DefaultPrefetchDepth.
func NewPrefetchFetcher(inner Fetcher, entries []recipe.Entry, depth int) *PrefetchFetcher {
	if depth <= 0 {
		depth = DefaultPrefetchDepth
	}
	planned := make(map[container.ID]bool)
	pos := make(map[container.ID]int)
	var plan []container.ID
	for _, e := range entries {
		if e.CID <= 0 {
			continue // validate() rejects these at the cache layer
		}
		id := container.ID(e.CID)
		if !planned[id] {
			planned[id] = true
			pos[id] = len(plan)
			plan = append(plan, id)
		}
	}
	return &PrefetchFetcher{
		inner:   inner,
		plan:    plan,
		planned: planned,
		pos:     pos,
		depth:   depth,
		stash:   make(map[container.ID]*prefetchItem),
	}
}

// run starts the dispatcher and worker pool; called once, from the first
// planned Get, so the pool inherits that restore's context.
func (p *PrefetchFetcher) run(ctx context.Context) {
	ictx, cancel := context.WithCancel(ctx)
	p.cancel = cancel
	g, gctx := pipeline.WithContext(ictx)
	p.group, p.pipeCtx = g, gctx
	// queue's capacity bounds the read-ahead window; work is unbuffered
	// so workers pick items up in plan order.
	p.queue = make(chan *prefetchItem, p.depth)
	work := make(chan *prefetchItem)
	plan := p.plan
	g.Go(func() error {
		defer close(p.queue)
		defer close(work)
		for _, id := range plan {
			it := &prefetchItem{id: id, ch: make(chan fetchOutcome, 1)}
			select {
			case p.queue <- it:
				p.windowEnter()
			case <-gctx.Done():
				return gctx.Err()
			}
			select {
			case work <- it:
			case <-gctx.Done():
				return gctx.Err()
			}
		}
		return nil
	})
	// The dispatcher never runs more than depth items ahead of
	// consumption, so a wider pool could only idle.
	for i := 0; i < min(p.depth, len(plan)); i++ {
		g.Go(func() error {
			for {
				select {
				case it, ok := <-work:
					if !ok {
						return nil
					}
					if !it.tryTake() {
						continue // its awaiter already read through
					}
					ctn, err := p.inner.Get(gctx, it.id)
					it.ch <- fetchOutcome{ctn: ctn, err: err}
				case <-gctx.Done():
					return gctx.Err()
				}
			}
		})
	}
}

// Get implements Fetcher. The first request for each planned container
// is served from the read-ahead pipeline; everything else — re-reads the
// policy issues after evicting, or requests after the pipeline stops —
// reads through directly, preserving the serial read sequence.
func (p *PrefetchFetcher) Get(ctx context.Context, id container.ID) (*container.Container, error) {
	if !p.planned[id] {
		return p.inner.Get(ctx, id)
	}
	p.start.Do(func() { p.run(ctx) })
	delete(p.planned, id) // consumed: later requests read through
	if it, ok := p.stash[id]; ok {
		delete(p.stash, id)
		p.windowLeave()
		p.drainSkipped(p.pos[id])
		return p.await(ctx, it)
	}
	for {
		select {
		case it, ok := <-p.queue:
			if !ok {
				// The pipeline stopped before dispatching id (cancel or
				// error); no worker touched it, so a direct read keeps
				// the count at one.
				return p.inner.Get(ctx, id)
			}
			if it.id == id {
				p.windowLeave()
				p.drainSkipped(p.pos[id])
				return p.await(ctx, it)
			}
			p.stash[it.id] = it
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// drainSkipped evicts stashed items the policy can no longer request.
// First requests arrive in plan order, so once position k is handed
// over, a stashed item at an earlier position was skipped outright —
// its fetched outcome is dropped, its window occupancy returned, and
// the id unmarked from the plan so a late (unplanned) request for it
// reads through directly instead of scanning a queue that will never
// deliver it again.
func (p *PrefetchFetcher) drainSkipped(k int) {
	for sid, it := range p.stash {
		if p.pos[sid] < k {
			delete(p.stash, sid)
			delete(p.planned, sid)
			p.windowLeave()
			_ = it // the worker's outcome (buffered in it.ch) is dropped
		}
	}
}

// await blocks for it's outcome, abandoning the wait if either the
// caller's context or the pipeline is done.
//
// On pipeline shutdown the awaiter races the item's worker: the worker
// may be mid-fetch (its outcome will still land in the buffered it.ch)
// or may never pick the item up. A non-blocking peek can't tell those
// apart — reading through while a fetch was in flight cost a second,
// uncounted backend read (the remote op count diverged from
// Stats.ContainerReads under cancellation). The item's state machine
// decides definitively: abandon() succeeding proves no worker has — or
// ever will — fetch it, so exactly one side issues the read.
func (p *PrefetchFetcher) await(ctx context.Context, it *prefetchItem) (*container.Container, error) {
	select {
	case out := <-it.ch:
		return p.settle(ctx, it, out)
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-p.pipeCtx.Done():
		// Definitive re-check: an outcome may have landed between the
		// pipeline dying and this branch winning the select.
		select {
		case out := <-it.ch:
			return p.settle(ctx, it, out)
		default:
		}
		if it.abandon() {
			// No worker took the item and tryTake now fails for it, so
			// one direct read keeps the backend count at one.
			return p.inner.Get(ctx, it.id)
		}
		// A worker owns the item; it delivers exactly one outcome even
		// when its fetch fails, and reading through before that lands
		// would double-fetch.
		select {
		case out := <-it.ch:
			return p.settle(ctx, it, out)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// settle maps a worker-delivered outcome to the caller. A fetch the
// pipeline's own cancellation aborted — while the caller is still
// live — never reached a useful read, so it is retried directly,
// preserving the read-through semantics the policy sees when the
// pipeline stops for any other reason.
func (p *PrefetchFetcher) settle(ctx context.Context, it *prefetchItem, out fetchOutcome) (*container.Container, error) {
	if out.err != nil && errors.Is(out.err, context.Canceled) && ctx.Err() == nil {
		return p.inner.Get(ctx, it.id)
	}
	return out.ctn, out.err
}

// windowEnter marks one container entering the read-ahead window.
func (p *PrefetchFetcher) windowEnter() {
	if p.mx == nil {
		return
	}
	p.outstanding.Add(1)
	p.mx.PrefetchOccupancy.Add(1)
}

// windowLeave marks one container handed over to the policy.
func (p *PrefetchFetcher) windowLeave() {
	if p.mx == nil {
		return
	}
	p.outstanding.Add(-1)
	p.mx.PrefetchOccupancy.Add(-1)
}

// Observe exposes the read-ahead window through mx: the occupancy
// gauge tracks containers currently in flight or stashed, and the
// planned counter advances by the plan length. Call before the first
// Get; nil mx is a no-op.
func (p *PrefetchFetcher) Observe(mx *obs.RestoreMetrics) {
	if mx == nil {
		return
	}
	p.mx = mx
	mx.PrefetchPlanned.Add(uint64(len(p.plan)))
}

// Close cancels outstanding read-ahead and waits for the worker pool to
// drain. Safe to call when Get never started the pipeline, and more than
// once.
func (p *PrefetchFetcher) Close() {
	if p.cancel != nil {
		p.cancel()
		// Workers never block (item channels are buffered), so Wait returns
		// promptly; its error is the cancellation we just caused.
		//hidelint:ignore discarded-error Wait only reports the cancellation this Close just triggered
		_ = p.group.Wait()
	}
	// An aborted restore leaves unconsumed items in the window; return
	// their occupancy so the gauge reads 0 between restores — only now that
	// the dispatcher has stopped counting items in — and drop any stashed
	// outcomes so their container images can be collected.
	clear(p.stash)
	if p.mx != nil {
		if n := p.outstanding.Swap(0); n != 0 {
			p.mx.PrefetchOccupancy.Add(-n)
		}
	}
}

// MaybePrefetch wraps fetch with a PrefetchFetcher over the resolved
// entries: a negative depth disables prefetching, zero selects
// DefaultPrefetchDepth. The window is both the fetch parallelism and the
// memory bound: up to depth reads — never more than the distinct
// containers — are in flight at once. mx, when non-nil, exposes the
// window's occupancy. Which containers are read, and how often, is
// unchanged by either. The returned func must be called once the restore
// finishes.
func MaybePrefetch(fetch Fetcher, entries []recipe.Entry, depth int, mx *obs.RestoreMetrics) (Fetcher, func()) {
	if depth < 0 {
		return fetch, func() {}
	}
	pf := NewPrefetchFetcher(fetch, entries, depth)
	pf.Observe(mx)
	return pf, pf.Close
}
