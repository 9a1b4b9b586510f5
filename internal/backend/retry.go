package backend

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// RetryOptions configures the retry layer.
type RetryOptions struct {
	// Tries is the total attempt budget per op (default 4).
	Tries int
	// MinDelay is the backoff before the first retry (default 10ms);
	// it doubles per retry, capped at MaxDelay (default 1s).
	MinDelay time.Duration
	MaxDelay time.Duration
	// Seed seeds the jitter stream (deterministic tests).
	Seed int64
	// Sleep replaces the backoff sleep (tests inject a recorder; nil
	// uses a real ctx-aware sleep).
	Sleep func(ctx context.Context, d time.Duration) error
	// OnRetry, when set, observes each retry after its backoff is
	// scheduled — the composition layer bumps metrics through it.
	OnRetry func(attempt int, err error)
}

func (o RetryOptions) withDefaults() RetryOptions {
	if o.Tries <= 0 {
		o.Tries = 4
	}
	if o.MinDelay <= 0 {
		o.MinDelay = 10 * time.Millisecond
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = time.Second
	}
	if o.Sleep == nil {
		o.Sleep = sleepCtx
	}
	return o
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Retry wraps a Backend with jittered exponential backoff over
// transient failures. The classification is strict: only errors
// matching ErrTransient are retried; ErrNotFound, corruption and every
// other error fail fast — retrying a missing container cannot help and
// only hides bugs (see DESIGN.md's retry classification table). It
// keeps no counters: the simulator below a stack counts every attempt,
// and OnRetry reports each retry.
type Retry struct {
	inner Backend
	opts  RetryOptions

	mu  sync.Mutex // guards rng
	rng *rand.Rand
}

var _ Backend = (*Retry)(nil)

// NewRetry wraps inner with retry behavior.
func NewRetry(inner Backend, opts RetryOptions) *Retry {
	opts = opts.withDefaults()
	return &Retry{
		inner: inner,
		opts:  opts,
		rng:   rand.New(rand.NewSource(opts.Seed)),
	}
}

// backoff returns the jittered delay before retry number n (1-based):
// uniformly drawn from [d/2, d) where d = MinDelay·2^(n-1), capped at
// MaxDelay.
func (r *Retry) backoff(n int) time.Duration {
	d := r.opts.MinDelay << (n - 1)
	if d > r.opts.MaxDelay || d <= 0 {
		d = r.opts.MaxDelay
	}
	r.mu.Lock()
	jitter := time.Duration(r.rng.Int63n(int64(d/2) + 1))
	r.mu.Unlock()
	return d/2 + jitter
}

// do runs op under the retry policy.
func (r *Retry) do(ctx context.Context, op func() error) error {
	var err error
	for attempt := 1; ; attempt++ {
		err = op()
		if err == nil || !IsTransient(err) || attempt >= r.opts.Tries {
			return err
		}
		if serr := r.opts.Sleep(ctx, r.backoff(attempt)); serr != nil {
			return serr
		}
		if r.opts.OnRetry != nil {
			r.opts.OnRetry(attempt, err)
		}
	}
}

// Put implements Backend.
func (r *Retry) Put(ctx context.Context, name string, data []byte) error {
	return r.do(ctx, func() error { return r.inner.Put(ctx, name, data) })
}

// Get implements Backend.
func (r *Retry) Get(ctx context.Context, name string) ([]byte, error) {
	var out []byte
	err := r.do(ctx, func() error {
		var err error
		out, err = r.inner.Get(ctx, name)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Delete implements Backend.
func (r *Retry) Delete(ctx context.Context, name string) error {
	return r.do(ctx, func() error { return r.inner.Delete(ctx, name) })
}

// Has implements Backend.
func (r *Retry) Has(ctx context.Context, name string) (bool, error) {
	var out bool
	err := r.do(ctx, func() error {
		var err error
		out, err = r.inner.Has(ctx, name)
		return err
	})
	if err != nil {
		return false, err
	}
	return out, nil
}

// List implements Backend.
func (r *Retry) List(ctx context.Context, prefix string) ([]string, error) {
	var out []string
	err := r.do(ctx, func() error {
		var err error
		out, err = r.inner.List(ctx, prefix)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
