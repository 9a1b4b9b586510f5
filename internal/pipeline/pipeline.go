// Package pipeline provides the staged-concurrency scaffolding the dedup
// engines' shared ingest path is built on, mirroring destor's pipelined
// architecture (chunking → hashing → indexing → rewriting → storing, §5.1
// of the paper). Stages are connected by bounded channels; the first error
// cancels the whole pipeline and Wait returns it after every goroutine has
// exited (no fire-and-forget goroutines).
package pipeline

import (
	"context"
	"sync"
)

// Group runs related goroutines and collects their first error, like
// golang.org/x/sync/errgroup but stdlib-only. The zero value is not
// usable; construct with WithContext.
type Group struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	errOnce sync.Once
	err     error
}

// WithContext returns a Group whose context is cancelled on first error
// or when Wait completes.
func WithContext(ctx context.Context) (*Group, context.Context) {
	gctx, cancel := context.WithCancel(ctx)
	return &Group{ctx: gctx, cancel: cancel}, gctx
}

// Go runs fn in a goroutine tracked by the group. A non-nil return
// cancels the group's context; only the first error is kept.
func (g *Group) Go(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(); err != nil {
			g.errOnce.Do(func() {
				g.err = err
				g.cancel()
			})
		}
	}()
}

// Wait blocks until every goroutine started with Go has returned, then
// returns the first error (nil if none).
func (g *Group) Wait() error {
	g.wg.Wait()
	g.cancel()
	return g.err
}

// rawBufDepth and hashedBufDepth size Ordered's two channels. Together
// with the worker count they determine how many items can sit between the
// producer and the in-order sink, which is what the sink's reorder credit
// cap is computed from.
const (
	rawBufDepth    = 64
	hashedBufDepth = 64
)

// numbered is an item tagged with its position in the producer's stream.
type numbered[T any] struct {
	seq int
	v   T
}

// Ordered is the one pipeline shape the engines run: gen produces items on
// one goroutine, `workers` goroutines apply fn to them concurrently, and
// sink consumes the results on one goroutine in the order gen emitted them,
// whatever the workers' scheduling. gen must return promptly once emit
// reports false (the pipeline was cancelled). The first error from any
// stage, or ctx's, cancels the rest and is returned after every goroutine
// has exited.
//
// At most rawBufDepth+hashedBufDepth+workers+1 items are in flight between
// gen and sink — everything the channels and worker hands can hold, plus
// the one the producer may block on: emit takes a credit per item and the
// sink returns it after processing. The cap is therefore also a ceiling on
// the sink's reorder map, so one slow worker cannot make the parked set
// grow without bound.
func Ordered[T any](ctx context.Context, workers int, gen func(emit func(T) bool) error,
	fn func(T) (T, error), sink func(T) error) error {
	return ordered(ctx, workers, gen, fn, sink, nil)
}

// ordered is Ordered with a test hook: observe, when non-nil, sees the
// sink's parked-item count after each arrival.
func ordered[T any](ctx context.Context, workers int, gen func(emit func(T) bool) error,
	fn func(T) (T, error), sink func(T) error, observe func(parked int)) error {
	if workers <= 0 {
		workers = 1
	}
	g, gctx := WithContext(ctx)
	credits := make(chan struct{}, rawBufDepth+hashedBufDepth+workers+1)
	raw := make(chan numbered[T], rawBufDepth)
	g.Go(func() error {
		defer close(raw)
		seq := 0
		return gen(func(v T) bool {
			select {
			case credits <- struct{}{}:
			case <-gctx.Done():
				return false
			}
			select {
			case raw <- numbered[T]{seq, v}:
				seq++
				return true
			case <-gctx.Done():
				return false
			}
		})
	})
	done := make(chan numbered[T], hashedBufDepth)
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		g.Go(func() error {
			defer wg.Done()
			for {
				select {
				case it, ok := <-raw:
					if !ok {
						return nil
					}
					var err error
					if it.v, err = fn(it.v); err != nil {
						return err
					}
					select {
					case done <- it:
					case <-gctx.Done():
						return gctx.Err()
					}
				case <-gctx.Done():
					return gctx.Err()
				}
			}
		})
	}
	g.Go(func() error {
		wg.Wait()
		close(done)
		return nil
	})
	g.Go(func() error {
		parked := make(map[int]T)
		next := 0
		for {
			select {
			case it, ok := <-done:
				if !ok {
					return nil
				}
				parked[it.seq] = it.v
				if observe != nil {
					observe(len(parked))
				}
				for {
					v, ok := parked[next]
					if !ok {
						break
					}
					delete(parked, next)
					next++
					err := sink(v)
					<-credits
					if err != nil {
						return err
					}
				}
			case <-gctx.Done():
				return gctx.Err()
			}
		}
	})
	return g.Wait()
}
