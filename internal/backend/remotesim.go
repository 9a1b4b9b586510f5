package backend

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hidestore/internal/obs"
)

// SimOptions configures the remote simulator.
type SimOptions struct {
	// Latency is the fixed per-operation round-trip added to every op.
	Latency time.Duration
	// BandwidthBps caps payload transfer in bytes per second; 0 means
	// unlimited. Gets charge the fetched size, Puts the written size.
	BandwidthBps float64
	// ErrRate is the probability (0..1) that an op fails with a
	// transient error before touching the inner backend; the op is then
	// safe to retry. Draws come from a deterministic seeded stream, like
	// internal/fault.
	ErrRate float64
	// FailEveryN, when positive, deterministically fails every Nth op
	// transiently (counting from 1) — the crash matrix and conformance
	// tests use it so one retry always succeeds. Composes with ErrRate.
	FailEveryN int
	// Seed seeds the error stream; the same seed and op sequence yields
	// the same injected failures.
	Seed int64
	// SleepScale scales the real sleeps (latency and transfer time):
	// 0 (the default) sleeps in full, a fraction sleeps that fraction,
	// and any negative value disables real sleeping entirely while
	// still accumulating modeled time. Experiments use -1 to sweep
	// multi-ms latencies without multi-minute runs; the Modeled stat
	// stays exact either way.
	SleepScale float64
}

// SimStats counts what the simulated remote saw: every attempt, since
// the retry layer sits above the simulator. Modeled is the
// deterministic time the configured latency and bandwidth would have
// cost — the experiment harness reports it instead of wall time, so
// sweep results are reproducible on any machine.
type SimStats struct {
	Ops       uint64
	Bytes     uint64
	Transient uint64
	Modeled   time.Duration
}

// RemoteSim wraps a Backend with deterministic remote-storage behavior:
// per-op latency, a bandwidth cap on payload bytes, and seeded
// transient faults. Injection happens before the inner op runs, so a
// failed op has no side effects and is always safe to retry.
type RemoteSim struct {
	inner Backend
	opts  SimOptions

	// mx, when NewStack sets it, mirrors Ops, Bytes and Transient into
	// the observability plane as they are counted.
	mx *obs.BackendMetrics

	mu    sync.Mutex
	rng   *rand.Rand
	stats SimStats
}

var _ Backend = (*RemoteSim)(nil)

// NewRemoteSim wraps inner with the simulated remote behavior.
func NewRemoteSim(inner Backend, opts SimOptions) *RemoteSim {
	return &RemoteSim{
		inner: inner,
		opts:  opts,
		rng:   rand.New(rand.NewSource(opts.Seed)),
	}
}

// Stats returns a snapshot of the simulator's counters.
func (s *RemoteSim) Stats() SimStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// begin counts one op and decides whether to inject a transient
// failure. The rng sits behind the mutex so concurrent prefetch
// workers draw from one deterministic stream.
func (s *RemoteSim) begin() (op uint64, inject bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Ops++
	s.stats.Modeled += s.opts.Latency
	op = s.stats.Ops
	if s.opts.FailEveryN > 0 && op%uint64(s.opts.FailEveryN) == 0 {
		inject = true
	}
	if !inject && s.opts.ErrRate > 0 && s.rng.Float64() < s.opts.ErrRate {
		inject = true
	}
	if inject {
		s.stats.Transient++
	}
	if s.mx != nil {
		s.mx.RemoteOps.Inc()
		if inject {
			s.mx.TransientErrors.Inc()
		}
	}
	return op, inject
}

// charge accounts payload bytes and returns the modeled transfer time.
func (s *RemoteSim) charge(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Bytes += uint64(n)
	if s.mx != nil {
		s.mx.RemoteBytes.Add(uint64(n))
	}
	if s.opts.BandwidthBps <= 0 {
		return 0
	}
	d := time.Duration(float64(n) / s.opts.BandwidthBps * float64(time.Second))
	s.stats.Modeled += d
	return d
}

// sleep waits the scaled duration or until ctx is done.
func (s *RemoteSim) sleep(ctx context.Context, d time.Duration) error {
	scale := s.opts.SleepScale
	if scale == 0 {
		scale = 1
	}
	d = time.Duration(float64(d) * scale)
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

// enter pays the op's latency and injects a fault if one was drawn.
func (s *RemoteSim) enter(ctx context.Context, verb, name string) error {
	op, inject := s.begin()
	if err := s.sleep(ctx, s.opts.Latency); err != nil {
		return err
	}
	if inject {
		return fmt.Errorf("%w: simulated %s %s (op %d)", ErrTransient, verb, name, op)
	}
	return nil
}

// Put implements Backend.
func (s *RemoteSim) Put(ctx context.Context, name string, data []byte) error {
	if err := s.enter(ctx, "put", name); err != nil {
		return err
	}
	if err := s.sleep(ctx, s.charge(len(data))); err != nil {
		return err
	}
	return s.inner.Put(ctx, name, data)
}

// Get implements Backend.
func (s *RemoteSim) Get(ctx context.Context, name string) ([]byte, error) {
	if err := s.enter(ctx, "get", name); err != nil {
		return nil, err
	}
	data, err := s.inner.Get(ctx, name)
	if err != nil {
		return nil, err
	}
	if err := s.sleep(ctx, s.charge(len(data))); err != nil {
		return nil, err
	}
	return data, nil
}

// Delete implements Backend.
func (s *RemoteSim) Delete(ctx context.Context, name string) error {
	if err := s.enter(ctx, "delete", name); err != nil {
		return err
	}
	return s.inner.Delete(ctx, name)
}

// Has implements Backend.
func (s *RemoteSim) Has(ctx context.Context, name string) (bool, error) {
	if err := s.enter(ctx, "has", name); err != nil {
		return false, err
	}
	return s.inner.Has(ctx, name)
}

// List implements Backend.
func (s *RemoteSim) List(ctx context.Context, prefix string) ([]string, error) {
	if err := s.enter(ctx, "list", prefix); err != nil {
		return nil, err
	}
	return s.inner.List(ctx, prefix)
}
