package backend

import (
	"context"
	"time"

	"hidestore/internal/obs"
)

// Observer sits at the top of a backend stack and records per-read
// fetch latency (through every layer below, retries included) and
// trace spans for reads and writes. Metadata ops (Delete, Has, List)
// pass through to the embedded backend.
type Observer struct {
	Backend
	mx     *obs.BackendMetrics
	tracer *obs.Tracer
}

var _ Backend = (*Observer)(nil)

// NewObserver wraps inner. Both mx and tracer may be nil.
func NewObserver(inner Backend, mx *obs.BackendMetrics, tracer *obs.Tracer) *Observer {
	return &Observer{Backend: inner, mx: mx, tracer: tracer}
}

// Get implements Backend.
func (o *Observer) Get(ctx context.Context, name string) ([]byte, error) {
	span := o.tracer.Start("backend.get", nil)
	start := time.Now()
	data, err := o.Backend.Get(ctx, name)
	if o.mx != nil {
		o.mx.FetchNS.Observe(uint64(time.Since(start)))
	}
	span.SetAttr("bytes", int64(len(data)))
	span.End()
	return data, err
}

// Put implements Backend.
func (o *Observer) Put(ctx context.Context, name string, data []byte) error {
	span := o.tracer.Start("backend.put", nil)
	span.SetAttr("bytes", int64(len(data)))
	err := o.Backend.Put(ctx, name, data)
	span.End()
	return err
}
