package backend

import (
	"hidestore/internal/obs"
)

// StackOptions assembles the canonical remote stack over a base
// backend.
type StackOptions struct {
	// Sim configures the remote simulator (always present in a stack —
	// a zero SimOptions is a perfect remote with no latency or faults).
	Sim SimOptions
	// Retry configures the retry layer (zero fields take defaults).
	Retry RetryOptions
	// Metrics and Tracer wire the stack into the observability plane
	// (both may be nil).
	Metrics *obs.BackendMetrics
	Tracer  *obs.Tracer
}

// NewStack composes base into Observer(Retry(RemoteSim(base))): the
// simulator counts the traffic that reached the remote, once per
// attempt, and mirrors those counts into opts.Metrics; the observer
// above the retry layer times each operation as the store sees it. The
// returned *RemoteSim exposes the deterministic traffic counters the
// experiment harness reports. The error is always nil: every layer
// opens in memory.
func NewStack(base Backend, opts StackOptions) (Backend, *RemoteSim, error) {
	sim := NewRemoteSim(base, opts.Sim)
	sim.mx = opts.Metrics
	retryOpts := opts.Retry
	if mx := opts.Metrics; mx != nil {
		prev := retryOpts.OnRetry
		retryOpts.OnRetry = func(attempt int, err error) {
			mx.Retries.Inc()
			if prev != nil {
				prev(attempt, err)
			}
		}
	}
	return NewObserver(NewRetry(sim, retryOpts), opts.Metrics, opts.Tracer), sim, nil
}
