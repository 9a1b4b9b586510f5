package restorecache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hidestore/internal/container"
	"hidestore/internal/fp"
	"hidestore/internal/obs"
	"hidestore/internal/recipe"
)

// TestParallelConformance pins the parallel restore mode's defining
// property: for every cache policy, every worker count and every
// prefetch depth, the restored bytes AND the full accounting
// (ContainerReads, CacheHits, Chunks, BytesRestored, store-level
// reads) are bit-identical to the serial baseline. Workers only change
// wall time — the policy remains the single decision-maker, so the
// identity holds by construction, and this test keeps it that way.
func TestParallelConformance(t *testing.T) {
	store, entries := conformanceEntries(t)
	for _, c := range smallCaches() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			store.Reset()
			var want bytes.Buffer
			base, err := c.Restore(context.Background(), entries, StoreFetcher(store), &want)
			if err != nil {
				t.Fatal(err)
			}
			baseReads := store.Reads()
			for _, workers := range []int{1, 2, 8} {
				for _, depth := range []int{-1, 0, 4} {
					workers, depth := workers, depth
					t.Run(fmt.Sprintf("workers-%d/depth-%d", workers, depth), func(t *testing.T) {
						store.Reset()
						fetch, done := MaybePrefetch(StoreFetcher(store), entries, depth, nil)
						var got bytes.Buffer
						pw := NewParallelWriter(&got, ParallelOptions{Workers: workers})
						stats, err := c.Restore(context.Background(), entries, fetch, pw)
						done()
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got.Bytes(), want.Bytes()) {
							t.Fatalf("parallel restore differs from serial baseline (%d vs %d bytes)",
								got.Len(), want.Len())
						}
						if stats != base {
							t.Fatalf("stats diverged: %+v vs serial %+v", stats, base)
						}
						if gotReads := store.Reads(); gotReads != baseReads {
							t.Fatalf("store reads = %d, serial baseline = %d", gotReads, baseReads)
						}
					})
				}
			}
		})
	}
}

// TestSpanPoolSharedByConcurrentRestores: restores running at once
// through one SpanPool each get their own spans — a span handed to two
// restores at once would mix their bytes (run it under -race).
func TestSpanPoolSharedByConcurrentRestores(t *testing.T) {
	store, entries, payloads := fixture(t, 4, 1024, 1024)
	want := expected(entries, payloads)
	var spans SpanPool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				var got bytes.Buffer
				pw := NewParallelWriter(&got, ParallelOptions{Workers: 2, Spans: &spans})
				if _, err := NewFAA(0).Restore(context.Background(), entries, StoreFetcher(store), pw); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Error("a restore sharing the span pool differs from the recipe's bytes")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestParallelRestorePropagatesFetchError: a missing container must
// fail the parallel restore cleanly — the assembler drains its workers
// and reorder window instead of deadlocking, and the error is the
// fetch error, not a downstream artifact.
func TestParallelRestorePropagatesFetchError(t *testing.T) {
	store, entries, _ := fixture(t, 6, 8, 512)
	bad := append([]recipe.Entry(nil), entries...)
	// A fingerprint no container holds, so even chunk caches (which
	// would satisfy a repeated FP without fetching) must hit CID 99.
	bad = append(bad, recipe.Entry{FP: fp.Of([]byte("never stored")), Size: 12, CID: 99})
	for _, c := range allCaches() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			var got bytes.Buffer
			pw := NewParallelWriter(&got, ParallelOptions{Workers: 4})
			_, err := c.Restore(context.Background(), bad, StoreFetcher(store), pw)
			if err == nil {
				t.Fatal("missing container did not fail the parallel restore")
			}
			if !errors.Is(err, container.ErrNotFound) {
				t.Fatalf("error lost the ErrNotFound cause: %v", err)
			}
		})
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct {
	n       int
	written int
}

var errSink = errors.New("sink full")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errSink
	}
	w.written += len(p)
	return len(p), nil
}

// TestParallelRestorePropagatesWriteError: a destination that starts
// failing mid-restore surfaces its error (matching serial semantics)
// and the assembler shuts down instead of deadlocking on the reorder
// window.
func TestParallelRestorePropagatesWriteError(t *testing.T) {
	store, entries, _ := fixture(t, 12, 16, 1024)
	for _, c := range allCaches() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			pw := NewParallelWriter(&failWriter{n: 4 << 10}, ParallelOptions{Workers: 4})
			_, err := c.Restore(context.Background(), entries, StoreFetcher(store), pw)
			if !errors.Is(err, errSink) {
				t.Fatalf("err = %v, want the sink's write error", err)
			}
		})
	}
}

// TestParallelRestoreCancelsPromptly: cancelling a parallel restore
// parked on a never-completing fetch returns context.Canceled without
// hanging the worker pool or the reorder writer.
func TestParallelRestoreCancelsPromptly(t *testing.T) {
	store, entries, _ := fixture(t, 8, 8, 512)
	for _, c := range allCaches() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			t.Parallel()
			slow := newSlowFetcher(StoreFetcher(store))
			fetch, done := MaybePrefetch(slow, entries, 4, nil)
			defer done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errCh := make(chan error, 1)
			go func() {
				pw := NewParallelWriter(&bytes.Buffer{}, ParallelOptions{Workers: 4})
				_, err := c.Restore(ctx, entries, fetch, pw)
				errCh <- err
			}()
			<-slow.started
			cancel()
			if err := <-errCh; !errors.Is(err, context.Canceled) {
				t.Fatalf("restore returned %v, want context.Canceled", err)
			}
		})
	}
}

// gateFetcher blocks every read on a shared gate while counting Gets
// per container. The gate deliberately ignores context cancellation:
// it models a backend read already in flight at the device, which no
// client-side cancel can recall.
type gateFetcher struct {
	inner   Fetcher
	mu      sync.Mutex
	gets    map[container.ID]int
	once    sync.Once
	started chan struct{} // closed when the first Get begins waiting
	release chan struct{}
}

func newGateFetcher(inner Fetcher) *gateFetcher {
	return &gateFetcher{
		inner:   inner,
		gets:    make(map[container.ID]int),
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (g *gateFetcher) Get(ctx context.Context, id container.ID) (*container.Container, error) {
	g.mu.Lock()
	g.gets[id]++
	g.mu.Unlock()
	g.once.Do(func() { close(g.started) })
	<-g.release
	return g.inner.Get(context.Background(), id)
}

func (g *gateFetcher) count(id container.ID) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gets[id]
}

// TestAwaitNoDuplicateFetchOnPipelineDeath is the regression test for
// the prefetch double-fetch race: the pipeline dies while a worker is
// mid-fetch on the awaited item. The awaiter must recognize that the
// worker owns the item (abandon fails) and wait for its buffered
// outcome instead of issuing a second backend read. Before the fix the
// non-blocking peek fell through to a direct read and the container
// was fetched twice — gets[1] observed 2 here, deterministically.
func TestAwaitNoDuplicateFetchOnPipelineDeath(t *testing.T) {
	store, entries, _ := fixture(t, 1, 4, 256)
	gate := newGateFetcher(StoreFetcher(store))
	p := NewPrefetchFetcher(gate, entries, 1)
	defer p.Close()

	type result struct {
		ctn *container.Container
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		ctn, err := p.Get(context.Background(), 1)
		resCh <- result{ctn, err}
	}()
	<-gate.started // the worker owns item 1 and is parked at the gate
	p.cancel()     // the pipeline dies under the awaiter
	// Let the awaiter observe the dead pipeline while the outcome is
	// still pending; only then release the in-flight "device" read.
	time.Sleep(20 * time.Millisecond)
	close(gate.release)

	res := <-resCh
	if res.err != nil {
		t.Fatalf("Get after pipeline death: %v", res.err)
	}
	if res.ctn == nil || res.ctn.ID() != 1 {
		t.Fatalf("Get returned %v, want container 1", res.ctn)
	}
	if n := gate.count(1); n != 1 {
		t.Fatalf("container 1 fetched %d times, want exactly 1 (double-fetch race)", n)
	}
}

// TestAwaitAbandonedItemReadsThroughOnce covers the other side of the
// ownership CAS: the pipeline dies before any worker picks the item
// up. The awaiter's abandon succeeds — proving no worker ever will —
// and exactly one direct read serves the request.
//
// The pool is as wide as the window, so an item waits for a worker only
// once the policy has taken over the window slot of one still being
// fetched: with depth 1, a request for container 2 that skips container
// 1 dispatches item 2 while the only worker is parked fetching item 1.
func TestAwaitAbandonedItemReadsThroughOnce(t *testing.T) {
	store, entries, _ := fixture(t, 2, 4, 256)
	gate := newGateFetcher(StoreFetcher(store))
	p := NewPrefetchFetcher(gate, entries, 1)
	p.Observe(obs.NewRestoreMetrics(obs.NewRegistry())) // keeps p.outstanding
	defer p.Close()

	type result struct {
		ctn *container.Container
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		ctn, err := p.Get(context.Background(), 2)
		resCh <- result{ctn, err}
	}()
	<-gate.started // the only worker is parked fetching item 1
	// Item 1 counted into the window before the worker took it, so the
	// balance is back at 0 only once Get has handed item 2 over: item 2
	// is then dispatched, idle, and awaited.
	eventually(t, "Get(2) awaits the window's only item", func() bool { return p.outstanding.Load() == 0 })
	p.cancel()
	// With the worker still parked on item 1, only the awaiter can be
	// reading container 2: its abandon won.
	eventually(t, "the awaiter reads container 2 through", func() bool { return gate.count(2) == 1 })
	close(gate.release)
	res := <-resCh
	if res.err != nil {
		t.Fatalf("Get(2) after pipeline death: %v", res.err)
	}
	if res.ctn.ID() != 2 {
		t.Fatalf("Get(2) returned container %d", res.ctn.ID())
	}
	if n := gate.count(2); n != 1 {
		t.Fatalf("container 2 fetched %d times, want exactly 1", n)
	}
	if n := gate.count(1); n != 1 {
		t.Fatalf("container 1 fetched %d times, want exactly 1", n)
	}
}
