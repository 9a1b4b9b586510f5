package backup

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"hidestore/internal/bufpool"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/fp"
	"hidestore/internal/obs"
	"hidestore/internal/pipeline"
)

// ErrFailed is what Backup and Delete return, wrapping the first cause,
// once an earlier one failed after touching the engine's dedup state: that
// state may name containers that never landed, so the engine refuses to
// build on it. Reopening the store — the recovery path the crash matrix
// proves — clears it; restores of committed versions keep working.
var ErrFailed = errors.New("backup: engine refuses writes after a failed one; reopen the store to recover")

// hashedChunk is one chunk flowing through the ingest pipeline. data is a
// pool-owned buffer: the producer fills it (via the pooled chunker), the
// stages in between must not retain it, and the engine's sink takes it
// over when Run hands it across, in stream order.
type hashedChunk struct {
	fp       fp.FP
	data     []byte
	probeHit bool // the hash worker's speculative verdict; see Run's probe
}

// IngestConfig is what an engine fixes once for every backup it runs.
type IngestConfig struct {
	Chunker     chunker.Algorithm
	ChunkParams chunker.Params
	HashWorkers int
	// Store and CommitDepth configure each backup's commit plane.
	Store       container.Store
	CommitDepth int
	// Metrics and Tracer are the engine's own bundles (nil: off).
	Metrics *obs.BackupMetrics
	Tracer  *obs.Tracer
}

// Ingester is the write path both engines share: chunk → fingerprint →
// credit-bounded in-order sink, the commit plane's lifecycle, the backup
// span, stage timing and the failure latch. An engine owns one for its
// lifetime and supplies only policy — what a chunk is deduplicated against
// and where it is stored — through Run's two hooks. Not safe for
// concurrent use, like the engines.
type Ingester struct {
	cfg    IngestConfig
	pool   *bufpool.Pool
	failed error // first cause of the latch; see ErrFailed
}

// NewIngester returns the shared write path configured by cfg.
func NewIngester(cfg IngestConfig) *Ingester {
	return &Ingester{cfg: cfg, pool: bufpool.New(cfg.ChunkParams.Max)}
}

// Release returns a chunk buffer to the pool. The sink owns each buffer it
// is handed and releases it once the payload is classified duplicate or
// copied into a container.
func (g *Ingester) Release(data []byte) { g.pool.Release(data) }

// Failed returns nil while the engine may mutate, and the sticky error —
// ErrFailed wrapping the first cause — once FailOn has latched.
func (g *Ingester) Failed() error {
	if g.failed == nil {
		return nil
	}
	return fmt.Errorf("%w (first failure: %w)", ErrFailed, g.failed)
}

// FailOn latches the engine if *err is set when an operation that touched
// dedup state returns; engines defer it. Only the first cause is kept.
func (g *Ingester) FailOn(err *error) {
	if *err != nil && g.failed == nil {
		g.failed = *err
	}
}

// Ingest is one running backup: its span, its commit plane and what the
// skeleton counted while pumping the stream.
type Ingest struct {
	g *Ingester
	// ingested is set once the whole stream has been through the sink. From
	// the sink's first chunk on, a failure leaves dedup state behind.
	ingested bool

	// Start is when the backup began; Span (nil with tracing off) is the
	// parent of every record it emits.
	Start time.Time
	Span  *obs.Span
	// Writer is the commit plane every container image of this backup is
	// written through: the engine seals into it and places its fences.
	Writer *container.AsyncWriter

	// Chunks and LogicalBytes count what the sink has been handed.
	Chunks       int
	LogicalBytes uint64

	chunkNS int64        // single-goroutine stage (the producer)
	fpNS    atomic.Int64 // runs on HashWorkers goroutines
}

// Begin opens a backup: the span and the commit plane. It refuses with the
// sticky error once the engine has failed. The caller must defer End.
func (g *Ingester) Begin(ctx context.Context) (*Ingest, error) {
	if err := g.Failed(); err != nil {
		return nil, err
	}
	in := &Ingest{g: g, Start: time.Now(), Span: g.cfg.Tracer.Start("backup", nil)}
	mx, tracer := g.cfg.Metrics, g.cfg.Tracer
	in.Writer = container.NewAsyncWriter(ctx, g.cfg.Store, g.cfg.CommitDepth,
		func(c *container.Container, t0 time.Time, d time.Duration) {
			// Called from the plane's goroutines, several at once; both
			// sinks are safe for concurrent use.
			if mx != nil {
				mx.ContainerWriteNS.Observe(uint64(d))
			}
			if tracer != nil {
				tracer.EmitStage("container.flush.async", in.Span, t0, d,
					map[string]int64{"container": int64(c.ID()), "bytes": int64(c.LiveSize())})
			}
		})
	return in, nil
}

// End closes the backup on every return path: it joins the plane's
// goroutines (no commit may outlive Backup or fail unreported), latches the
// engine if the failure came after dedup state was touched, and ends the
// span — failures carry an error attr instead of leaking an open span.
func (in *Ingest) End(retErr *error) {
	if werr := in.Writer.Barrier(); werr != nil && *retErr == nil {
		*retErr = werr
	}
	if *retErr != nil {
		in.Span.SetAttr("error", 1)
	}
	if in.Chunks > 0 || in.ingested {
		in.g.FailOn(retErr)
	}
	in.Span.End()
}

// Run pumps version through the pipeline and returns once sink has
// consumed the last chunk, or with the first error. probe, when non-nil,
// runs on the hash workers right after a chunk is fingerprinted — a
// speculative classification that overlaps an expensive lookup with the
// other workers instead of serializing it behind the sink; its verdict
// travels with the chunk. sink runs on one goroutine, in stream order, and
// owns data from the call on (see Release).
func (in *Ingest) Run(ctx context.Context, version io.Reader, probe func(fp.FP) bool, sink func(f fp.FP, data []byte, probeHit bool) error) error {
	cfg := in.g.cfg
	ch, err := chunker.NewPooled(cfg.Chunker, version, cfg.ChunkParams, in.g.pool)
	if err != nil {
		return err
	}
	// obsOn gates every hot-path clock read: with the plane off, a backup
	// performs exactly one extra boolean test per chunk. The histograms
	// are hoisted into locals so the per-chunk record is a nil-safe method
	// call even when only the tracer is live.
	obsOn := cfg.Metrics != nil || cfg.Tracer != nil
	var mxChunk, mxFP *obs.Histogram
	if cfg.Metrics != nil {
		mxChunk, mxFP = cfg.Metrics.ChunkingNS, cfg.Metrics.FingerprintNS
	}
	// pipeline.Ordered bounds the chunks in flight between the chunker and
	// the sink and restores stream order behind the hash workers.
	err = pipeline.Ordered(ctx, cfg.HashWorkers,
		func(emit func(hashedChunk) bool) error {
			for {
				var t0 time.Time
				if obsOn {
					t0 = time.Now()
				}
				data, err := ch.Next()
				if obsOn {
					d := time.Since(t0)
					in.chunkNS += int64(d)
					mxChunk.Observe(uint64(d))
				}
				if errors.Is(err, io.EOF) {
					return nil
				}
				if err != nil {
					return fmt.Errorf("backup: chunking: %w", err)
				}
				if !emit(hashedChunk{data: data}) {
					return nil
				}
			}
		},
		func(c hashedChunk) (hashedChunk, error) {
			var t0 time.Time
			if obsOn {
				t0 = time.Now()
			}
			c.fp = fp.Of(c.data)
			if obsOn {
				d := time.Since(t0)
				in.fpNS.Add(int64(d))
				mxFP.Observe(uint64(d))
			}
			if probe != nil {
				c.probeHit = probe(c.fp)
			}
			return c, nil
		},
		func(c hashedChunk) error {
			in.Chunks++
			in.LogicalBytes += uint64(len(c.data))
			return sink(c.fp, c.data, c.probeHit)
		})
	if err != nil {
		return err
	}
	in.ingested = true
	return nil
}

// Report closes a successful backup's books: it mirrors the version's
// totals into the registry and the span, emits the stage records the
// skeleton timed, and returns the part of the report every engine fills
// the same way. stored and unique are what the engine newly stored, written
// the payload of every image it put. Call it after the last fence, or
// CommitWait under-reports.
func (in *Ingest) Report(version int, stored uint64, unique int, written uint64) BackupReport {
	commitWait := in.Writer.Blocked()
	if mx := in.g.cfg.Metrics; mx != nil {
		mx.Versions.Inc()
		mx.LogicalBytes.Add(in.LogicalBytes)
		mx.StoredBytes.Add(stored)
		mx.Chunks.Add(uint64(in.Chunks))
		mx.UniqueChunks.Add(uint64(unique))
		mx.ContainerBytesWritten.Add(written)
		mx.CommitWaitNS.Add(uint64(commitWait))
		ps := in.g.pool.Stats()
		mx.PoolInUse.Set(ps.InUse)
		mx.PoolInUseBytes.Set(ps.InUseBytes)
		mx.PoolSlabs.Set(int64(ps.SlabAllocs))
	}
	if tracer := in.g.cfg.Tracer; tracer != nil {
		// Chunking and fingerprinting run interleaved with the dedup
		// sink, so their cost is the per-item sum, not a wall interval.
		tracer.EmitStage("stage.chunking", in.Span, in.Start, time.Duration(in.chunkNS),
			map[string]int64{"chunks": int64(in.Chunks), "bytes": int64(in.LogicalBytes)})
		tracer.EmitStage("stage.fingerprint", in.Span, in.Start, time.Duration(in.fpNS.Load()),
			map[string]int64{"chunks": int64(in.Chunks), "bytes": int64(in.LogicalBytes)})
		tracer.EmitStage("stage.commit_wait", in.Span, in.Start, commitWait, nil)
		in.Span.SetAttr("version", int64(version))
		in.Span.SetAttr("bytes", int64(in.LogicalBytes))
		in.Span.SetAttr("chunks", int64(in.Chunks))
		in.Span.SetAttr("unique", int64(unique))
	}
	return BackupReport{
		Version:               version,
		LogicalBytes:          in.LogicalBytes,
		StoredBytes:           stored,
		Chunks:                in.Chunks,
		UniqueChunks:          unique,
		ContainerBytesWritten: written,
		CommitWait:            commitWait,
		Duration:              time.Since(in.Start),
	}
}
