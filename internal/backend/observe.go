package backend

import (
	"context"
	"time"

	"hidestore/internal/obs"
)

// Meter counts the traffic that passes through it into a BackendMetrics
// bundle. Placed directly above the remote layer it counts remote ops,
// payload bytes and transient failures — the retry layer sits higher,
// so each attempt is counted once.
type Meter struct {
	inner Backend
	mx    *obs.BackendMetrics
}

var _ Backend = (*Meter)(nil)

// NewMeter wraps inner; a nil mx passes through uncounted.
func NewMeter(inner Backend, mx *obs.BackendMetrics) *Meter {
	return &Meter{inner: inner, mx: mx}
}

func (m *Meter) count(n int, err error) {
	if m.mx == nil {
		return
	}
	m.mx.RemoteOps.Inc()
	if n > 0 {
		m.mx.RemoteBytes.Add(uint64(n))
	}
	if IsTransient(err) {
		m.mx.TransientErrors.Inc()
	}
}

// Put implements Backend.
func (m *Meter) Put(ctx context.Context, name string, data []byte) error {
	err := m.inner.Put(ctx, name, data)
	m.count(len(data), err)
	return err
}

// Get implements Backend.
func (m *Meter) Get(ctx context.Context, name string) ([]byte, error) {
	data, err := m.inner.Get(ctx, name)
	m.count(len(data), err)
	return data, err
}

// Delete implements Backend.
func (m *Meter) Delete(ctx context.Context, name string) error {
	err := m.inner.Delete(ctx, name)
	m.count(0, err)
	return err
}

// Has implements Backend.
func (m *Meter) Has(ctx context.Context, name string) (bool, error) {
	ok, err := m.inner.Has(ctx, name)
	m.count(0, err)
	return ok, err
}

// List implements Backend.
func (m *Meter) List(ctx context.Context, prefix string) ([]string, error) {
	names, err := m.inner.List(ctx, prefix)
	m.count(0, err)
	return names, err
}

// Observer sits at the top of a backend stack and records per-read
// fetch latency (through every layer below, retries included) and
// trace spans for reads and writes. Metadata ops pass through.
type Observer struct {
	inner  Backend
	mx     *obs.BackendMetrics
	tracer *obs.Tracer
}

var _ Backend = (*Observer)(nil)

// NewObserver wraps inner. Both mx and tracer may be nil.
func NewObserver(inner Backend, mx *obs.BackendMetrics, tracer *obs.Tracer) *Observer {
	return &Observer{inner: inner, mx: mx, tracer: tracer}
}

// Get implements Backend.
func (o *Observer) Get(ctx context.Context, name string) ([]byte, error) {
	span := o.tracer.Start("backend.get", nil)
	start := time.Now()
	data, err := o.inner.Get(ctx, name)
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
	err := o.inner.Put(ctx, name, data)
	span.End()
	return err
}

// Delete implements Backend.
func (o *Observer) Delete(ctx context.Context, name string) error {
	return o.inner.Delete(ctx, name)
}

// Has implements Backend.
func (o *Observer) Has(ctx context.Context, name string) (bool, error) {
	return o.inner.Has(ctx, name)
}

// List implements Backend.
func (o *Observer) List(ctx context.Context, prefix string) ([]string, error) {
	return o.inner.List(ctx, prefix)
}
