package restorecache

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hidestore/internal/container"
	"hidestore/internal/container/containertest"
	"hidestore/internal/fp"
	"hidestore/internal/recipe"
)

// The conformance suite pins the prefetch accounting invariant: for every
// cache policy, wrapping the fetcher (PrefetchFetcher at any depth,
// VerifyingFetcher) must leave the restored bytes, the policy-level
// ContainerReads, and the reads the store served bit-identical to
// the plain serial fetcher. Prefetch may only change *when* reads
// happen, never *which* — otherwise it would corrupt the paper's speed
// factor metric (§5.3).

// conformanceEntries builds a reference sequence that exercises re-reads
// and cache churn: a sequential pass, an interleaved pass over the first
// half, and a revisit of the start (evicted by then for small caches).
func conformanceEntries(t *testing.T) (*containertest.CountingStore, []recipe.Entry) {
	t.Helper()
	store, base, _ := fixture(t, 12, 16, 1024)
	rng := rand.New(rand.NewSource(42))
	entries := append([]recipe.Entry(nil), base...)
	shuffled := append([]recipe.Entry(nil), base[:len(base)/2]...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	entries = append(entries, shuffled...)
	entries = append(entries, base[:24]...)
	return store, entries
}

type fetchMode struct {
	name string
	wrap func(inner Fetcher, entries []recipe.Entry) (Fetcher, func())
}

func fetchModes() []fetchMode {
	noop := func() {}
	return []fetchMode{
		{"plain", func(inner Fetcher, _ []recipe.Entry) (Fetcher, func()) { return inner, noop }},
		{"prefetch-1", func(inner Fetcher, e []recipe.Entry) (Fetcher, func()) {
			p := NewPrefetchFetcher(inner, e, 1)
			return p, p.Close
		}},
		{"prefetch-default", func(inner Fetcher, e []recipe.Entry) (Fetcher, func()) {
			p := NewPrefetchFetcher(inner, e, 0)
			return p, p.Close
		}},
		{"prefetch-64", func(inner Fetcher, e []recipe.Entry) (Fetcher, func()) {
			p := NewPrefetchFetcher(inner, e, 64)
			return p, p.Close
		}},
		{"verifying", func(inner Fetcher, _ []recipe.Entry) (Fetcher, func()) {
			return NewVerifyingFetcher(inner), noop
		}},
		{"prefetch-verifying", func(inner Fetcher, e []recipe.Entry) (Fetcher, func()) {
			p := NewPrefetchFetcher(NewVerifyingFetcher(inner), e, 4)
			return p, p.Close
		}},
	}
}

// smallCaches stresses eviction and re-reads harder than the defaults.
func smallCaches() []Cache {
	return []Cache{
		NewContainerLRU(3),
		NewChunkLRU(48 << 10),
		NewFAA(64 << 10),
		NewALACC(Options{AreaBytes: 64 << 10, CacheBytes: 64 << 10, LookAheadBytes: 128 << 10}),
		NewOPT(3),
	}
}

func TestConformanceAcrossFetchers(t *testing.T) {
	store, entries := conformanceEntries(t)
	for _, c := range smallCaches() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			// Serial baseline: bytes, policy reads, store reads.
			store.Reset()
			var want bytes.Buffer
			base, err := c.Restore(context.Background(), entries, StoreFetcher(store), &want)
			if err != nil {
				t.Fatal(err)
			}
			baseReads := store.Reads()
			for _, mode := range fetchModes() {
				mode := mode
				t.Run(mode.name, func(t *testing.T) {
					store.Reset()
					fetch, done := mode.wrap(StoreFetcher(store), entries)
					var got bytes.Buffer
					stats, err := c.Restore(context.Background(), entries, fetch, &got)
					done()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Fatalf("restored bytes differ from serial baseline (%d vs %d bytes)",
							got.Len(), want.Len())
					}
					if stats.ContainerReads != base.ContainerReads {
						t.Fatalf("ContainerReads = %d, serial baseline = %d",
							stats.ContainerReads, base.ContainerReads)
					}
					if stats.BytesRestored != base.BytesRestored || stats.Chunks != base.Chunks {
						t.Fatalf("stats diverged: %+v vs %+v", stats, base)
					}
					if gotReads := store.Reads(); gotReads != baseReads {
						t.Fatalf("store reads = %d, serial baseline = %d", gotReads, baseReads)
					}
				})
			}
		})
	}
}

// TestPrefetchCloseWithoutUse: a prefetcher whose Get never runs must
// not leak goroutines or issue any reads.
func TestPrefetchCloseWithoutUse(t *testing.T) {
	store, entries, _ := fixture(t, 4, 4, 256)
	p := NewPrefetchFetcher(StoreFetcher(store), entries, 8)
	p.Close()
	p.Close() // idempotent
	if reads := store.Reads(); reads != 0 {
		t.Fatalf("unused prefetcher issued %d reads", reads)
	}
}

// TestPrefetchUnplannedReadsThrough: requests outside the plan (e.g. a
// policy re-read after the planned copy was consumed) hit the store
// directly.
func TestPrefetchUnplannedReadsThrough(t *testing.T) {
	store, entries, _ := fixture(t, 3, 4, 256)
	p := NewPrefetchFetcher(StoreFetcher(store), entries, 2)
	defer p.Close()
	ctx := context.Background()
	for _, id := range []container.ID{1, 2, 3} {
		if _, err := p.Get(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	// Second request for container 2: its planned copy is consumed.
	if _, err := p.Get(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if reads := store.Reads(); reads != 4 {
		t.Fatalf("store reads = %d, want 4 (3 planned + 1 read-through)", reads)
	}
}

// TestPrefetchPropagatesFetchErrors: a missing container surfaces on
// the consumer's Get, not as a hang or a swallowed error.
func TestPrefetchPropagatesFetchErrors(t *testing.T) {
	store, entries, _ := fixture(t, 2, 4, 256)
	bad := append([]recipe.Entry(nil), entries...)
	bad = append(bad, recipe.Entry{FP: bad[0].FP, Size: bad[0].Size, CID: 99})
	p := NewPrefetchFetcher(StoreFetcher(store), bad, 4)
	defer p.Close()
	ctx := context.Background()
	if _, err := p.Get(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(ctx, 99); err == nil {
		t.Fatal("missing container should fail through the prefetcher")
	}
}

// delayFetcher adds a fixed latency to every read, simulating the disk
// seek + rotation cost of a cold container on spinning media. Unlike
// CPU-bound decode work, this latency overlaps under prefetch even on a
// single-core machine, which is the read-ahead pipeline's target case.
type delayFetcher struct {
	inner Fetcher
	delay time.Duration
}

func (d *delayFetcher) Get(ctx context.Context, id container.ID) (*container.Container, error) {
	timer := time.NewTimer(d.delay)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return d.inner.Get(ctx, id)
}

// BenchmarkPrefetchLatencyHiding measures how much per-container read
// latency the prefetch pipeline hides. With a 1ms simulated seek per
// container and a serial fetcher, the restore pays the full
// reads × 1ms; with read-ahead the seeks overlap chunk assembly and
// each other, so wall clock approaches max(assembly, reads/depth × 1ms).
func BenchmarkPrefetchLatencyHiding(b *testing.B) {
	store, entries, _ := benchFixture(b, 32, 64, 4096)
	cache := NewFAA(1 << 20)
	for _, mode := range []struct {
		name  string
		depth int
	}{
		{"serial", -1},
		{"prefetch-4", 4},
		{"prefetch-8", 8},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var total int64
			for _, e := range entries {
				total += int64(e.Size)
			}
			b.SetBytes(total)
			for i := 0; i < b.N; i++ {
				slow := &delayFetcher{inner: StoreFetcher(store), delay: time.Millisecond}
				fetch, done := MaybePrefetch(slow, entries, mode.depth, nil)
				if _, err := cache.Restore(context.Background(), entries, fetch, io.Discard); err != nil {
					b.Fatal(err)
				}
				done()
			}
		})
	}
}

// benchFixture mirrors fixture for benchmarks.
func benchFixture(b *testing.B, nContainers, chunksPer, chunkSize int) (*container.MemStore, []recipe.Entry, int) {
	b.Helper()
	store := container.NewMemStore()
	rng := rand.New(rand.NewSource(11))
	var entries []recipe.Entry
	for cid := 1; cid <= nContainers; cid++ {
		ctn := container.NewWithCapacity(container.ID(cid), container.DefaultCapacity)
		for j := 0; j < chunksPer; j++ {
			data := make([]byte, chunkSize)
			rng.Read(data)
			f := fp.Of(data)
			if err := ctn.Add(f, data); err != nil {
				b.Fatal(err)
			}
			entries = append(entries, recipe.Entry{FP: f, Size: uint32(chunkSize), CID: int32(cid)})
		}
		if err := store.Put(ctn); err != nil {
			b.Fatal(err)
		}
	}
	return store, entries, nContainers
}

// slowFetcher blocks every read until release is closed, so a restore
// can be parked mid-container-read. Safe for concurrent workers.
type slowFetcher struct {
	inner     Fetcher
	startOnce sync.Once
	started   chan struct{} // closed when the first Get begins
	release   chan struct{}
}

func newSlowFetcher(inner Fetcher) *slowFetcher {
	return &slowFetcher{inner: inner, started: make(chan struct{}), release: make(chan struct{})}
}

func (s *slowFetcher) Get(ctx context.Context, id container.ID) (*container.Container, error) {
	s.startOnce.Do(func() { close(s.started) })
	select {
	case <-s.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.inner.Get(ctx, id)
}

// TestRestoreCancelsPromptly: cancelling mid-restore returns
// context.Canceled without waiting for the remaining containers, for
// every cache, with and without prefetch. The slow fetcher never
// releases, so a non-cancellable restore would hang the test.
func TestRestoreCancelsPromptly(t *testing.T) {
	store, entries, _ := fixture(t, 8, 8, 512)
	for _, c := range allCaches() {
		c := c
		for _, depth := range []int{-1, 4} {
			depth := depth
			name := c.Name() + "/serial"
			if depth > 0 {
				name = c.Name() + "/prefetch"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				slow := newSlowFetcher(StoreFetcher(store))
				fetch, done := MaybePrefetch(slow, entries, depth, nil)
				defer done()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				errCh := make(chan error, 1)
				go func() {
					_, err := c.Restore(ctx, entries, fetch, &bytes.Buffer{})
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
}
