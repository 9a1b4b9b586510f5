package container

import (
	"context"
	"sync"
	"time"
)

// DefaultCommitDepth is the commit plane's width when the engines'
// AsyncCommitDepth is left at zero.
const DefaultCommitDepth = 2

// CommitWidth resolves an engine's AsyncCommitDepth setting into how
// many store operations the commit plane keeps in flight: zero selects
// DefaultCommitDepth, a negative depth selects one.
func CommitWidth(depth int) int {
	switch {
	case depth == 0:
		return DefaultCommitDepth
	case depth < 0:
		return 1
	}
	return depth
}

// flight bounds a set of concurrently running store operations: at most
// cap(slots) run at once, the first failure is kept and refuses every
// later start, and wait joins every goroutine it started. acquire, goRun
// and wait belong to one goroutine; the operations run on their own.
type flight struct {
	slots chan struct{} // counting semaphore, one token per running op
	wg    sync.WaitGroup

	mu     sync.Mutex
	err    error
	failed chan struct{} // closed once err is set
}

func newFlight(width int) *flight {
	return &flight{slots: make(chan struct{}, width), failed: make(chan struct{})}
}

// fail records err if it is the first.
func (f *flight) fail(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
		close(f.failed)
	}
	f.mu.Unlock()
}

func (f *flight) firstErr() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// acquire blocks until a slot is free. It fails — recording the failure,
// since the caller's operation will not run — when an earlier operation
// has failed or done is closed (cause names why).
func (f *flight) acquire(done <-chan struct{}, cause func() error) error {
	select {
	case f.slots <- struct{}{}:
		// A free slot, a recorded failure and a closed done can all be
		// ready at once, and select picks at random: look again.
		select {
		case <-f.failed:
		case <-done:
			f.fail(cause())
		default:
			return nil
		}
		<-f.slots
	case <-f.failed:
	case <-done:
		f.fail(cause())
	}
	return f.firstErr()
}

// run executes op in the slot acquire took and releases it afterwards. An
// operation that finds a failure already recorded does not start.
func (f *flight) run(op func() error) {
	defer func() { <-f.slots }()
	if f.firstErr() != nil {
		return
	}
	if err := op(); err != nil {
		f.fail(err)
	}
}

// goRun is run on a new goroutine that wait joins.
func (f *flight) goRun(op func() error) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.run(op)
	}()
}

// wait blocks until every started operation has returned and reports
// the first failure.
func (f *flight) wait() error {
	f.wg.Wait()
	return f.firstErr()
}

// AsyncWriter is the commit plane of a backup: every container image the
// backup writes — sealed ingest containers, archival containers filled by
// cold migration, merged actives — is handed to Put with the store it
// goes to, which keeps up to depth Store.Puts (fsync'd file writes on the
// durable store, round trips on a remote one) in flight while the engine
// goroutine goes on chunking or packing the next image. This is the
// write-path symmetric of the restore read-ahead, after destor's
// pipelined container log.
//
// Contract, relied on by the engines and their crash tests:
//
//   - Put and Barrier are called from one goroutine (the engine's).
//   - The producer must not mutate a container after handing it to Put
//     until a Barrier has returned; concurrent reads are fine.
//   - Images reach the store in no particular order. Recovery does not
//     depend on it: every image is written once under a fresh ID, and
//     until the recipe and state that name it commit, any subset that
//     landed is a set of orphans for the startup sweep. Depth 1 (and the
//     inline mode below) does commit in Put order, which the op-indexed
//     crash matrix uses.
//   - Errors are never dropped and only the first is kept: it is returned
//     by the next Put and by every Barrier, and no Store.Put starts after
//     it. A cancelled context counts as a failure as soon as it makes Put
//     refuse an image.
//   - Barrier is the commit-order fence: it returns once every image
//     handed over so far is durably in the store, with every goroutine the
//     writer started joined. The writer stays usable after a clean Barrier.
//   - At most depth images are in flight, so the plane holds at most
//     depth × container capacity bytes beyond the image being filled.
type AsyncWriter struct {
	ctx     context.Context
	f       *flight
	inline  bool
	flushed func(c *Container, start time.Time, d time.Duration)
	// blocked is producer-goroutine state, like Put and Barrier.
	blocked time.Duration
}

// NewAsyncWriter returns a writer with up to CommitWidth(depth) Puts in
// flight. A negative depth commits each image on the caller's goroutine
// before Put returns — the same path at width one with nothing left in
// flight. flushed, when non-nil, is called after each successful
// Store.Put from the goroutine that issued it — callers use it for
// metrics/trace emission and it must be safe for concurrent use. The
// writer starts no goroutine that outlives the next Barrier.
func NewAsyncWriter(ctx context.Context, depth int, flushed func(*Container, time.Time, time.Duration)) *AsyncWriter {
	return &AsyncWriter{
		ctx:     ctx,
		f:       newFlight(CommitWidth(depth)),
		inline:  depth < 0,
		flushed: flushed,
	}
}

// Put hands a finished container image to the plane, to be written to
// store, blocking only while depth images are already in flight. It
// returns the writer's first error if one has occurred — a failed commit
// surfaces on the next Put, never silently.
func (w *AsyncWriter) Put(store Store, c *Container) error {
	t0 := time.Now()
	defer func() { w.blocked += time.Since(t0) }()
	if err := w.f.acquire(w.ctx.Done(), w.ctx.Err); err != nil {
		return err
	}
	commit := func() error {
		start := time.Now()
		if err := store.Put(c); err != nil {
			return err
		}
		if w.flushed != nil {
			w.flushed(c, start, time.Since(start))
		}
		return nil
	}
	if w.inline {
		w.f.run(commit)
		return w.f.firstErr()
	}
	w.f.goRun(commit)
	return nil
}

// Barrier blocks until every Store.Put the writer started has returned —
// on success, every image handed to Put is durably in the store — and
// returns the first error.
func (w *AsyncWriter) Barrier() error {
	t0 := time.Now()
	err := w.f.wait()
	w.blocked += time.Since(t0)
	return err
}

// Blocked reports how long the producer goroutine has spent inside Put
// and Barrier: waiting for a free slot, at the fences, and — in inline
// mode — in the store itself.
func (w *AsyncWriter) Blocked() time.Duration { return w.blocked }

// DeleteAll removes ids from store with up to width Store.Deletes in
// flight. After the first failure no further Delete starts; it returns
// the IDs that were not deleted, in their input order, and that first
// error. Width 1 deletes in order.
func DeleteAll(store Store, ids []ID, width int) ([]ID, error) {
	f := newFlight(width)
	deleted := make([]bool, len(ids))
	for i, id := range ids {
		if f.acquire(nil, nil) != nil {
			break
		}
		f.goRun(func() error {
			if err := store.Delete(id); err != nil {
				return err
			}
			deleted[i] = true
			return nil
		})
	}
	err := f.wait()
	if err == nil {
		return nil, nil
	}
	var left []ID
	for i, id := range ids {
		if !deleted[i] {
			left = append(left, id)
		}
	}
	return left, err
}
