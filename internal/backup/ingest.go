package backup

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

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

// Ingester is the write path both engines share: stream slabs → parallel
// scan and fingerprint → in-order resync and sink, the commit plane's
// lifecycle, the backup span, stage timing and the failure latch. An
// engine owns one for its lifetime and supplies only policy — what a chunk
// is deduplicated against and where it is stored — through Run's two
// hooks. Not safe for concurrent use, like the engines.
type Ingester struct {
	cfg      IngestConfig
	slabSize int
	// slabs is made by the first Run, once the decision window is known,
	// and recycles slabs across every backup after it.
	slabs  *slabPool
	failed error // first cause of the latch; see ErrFailed
}

// NewIngester returns the shared write path configured by cfg.
func NewIngester(cfg IngestConfig) *Ingester {
	return &Ingester{cfg: cfg, slabSize: slabBytes}
}

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

	// Scan and hash time summed over the hash workers and the resync.
	chunkNS, fpNS atomic.Int64
	// recut counts the chunks the sink cut and hashed itself.
	recut int
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
// consumed the last chunk, or with the first error. The chunks and their
// cut points are exactly the sequential chunker's (chunker.New).
//
// The producer only reads: it cuts the version into stream slabs (see
// slab). The hash workers each take a whole slab and cut, fingerprint and
// probe it speculatively, as if a chunk started at its first byte. The
// sink, in stream order, resyncs: from the offset at which the true chain
// enters the slab it cuts and hashes chunk by chunk until it reaches a
// speculative chunk start, and from there adopts the worker's chunks. A
// cut is a pure function of the window that starts at the previous cut,
// so two chains that share one start share every start after it. Inside
// a run of identical bytes longer than a slab the chains almost never
// meet, at any parameters; there the sink borrows the cut of an earlier
// chunk with a byte-equal window (see resync). What neither rescues —
// fixed-size chunks whose size does not divide the slab, patterns whose
// windows repeat only after more than eight chunks — is cut on the sink
// alone: still the same chunks, but serially.
//
// probe, when non-nil, classifies a chunk's fingerprint speculatively on
// the hash workers (or on the sink for chunks the resync cut itself); its
// verdict travels with the chunk, so it must be safe for concurrent use
// and read-only. sink runs on one goroutine, in stream order, and must
// Release every chunk it is handed. A reader error is returned after
// every chunk whose decision window was read before it.
func (in *Ingest) Run(ctx context.Context, version io.Reader, probe func(fp.FP) bool, sink func(Chunk) error) error {
	g, cfg := in.g, in.g.cfg
	dec, err := chunker.NewDecider(cfg.Chunker, cfg.ChunkParams)
	if err != nil {
		return err
	}
	if g.slabs == nil {
		g.slabs = newSlabPool(g.slabSize, dec.Window())
	}
	// obsOn gates every hot-path clock read: with the plane off, a backup
	// reads no clock per chunk. The histograms are hoisted so the
	// per-chunk record is a nil-safe method call when only the tracer is
	// live.
	c := &cutter{in: in, dec: dec, win: dec.Window(), probe: probe, obsOn: cfg.Metrics != nil || cfg.Tracer != nil}
	if cfg.Metrics != nil {
		c.mxChunk, c.mxFP = cfg.Metrics.ChunkingNS, cfg.Metrics.FingerprintNS
	}
	entry := 0 // where the true chain enters the next slab
	err = pipeline.Ordered(ctx, cfg.HashWorkers,
		func(emit func(*slab) bool) error { return g.slabs.read(ctx, version, emit) },
		func(s *slab) (*slab, error) { c.speculate(s); return s, nil },
		func(s *slab) error { return c.resync(s, &entry, sink) })
	if err != nil {
		// The slabs still out will never all come back: the pipeline that
		// held some is gone and the engine drops its chunks. The next Run
		// starts a fresh pool; this one goes to the collector with its
		// late releases. The allocation count carries over.
		old := g.slabs
		g.slabs = newSlabPool(old.size, old.window)
		g.slabs.allocs = old.stats().SlabAllocs
		return err
	}
	in.ingested = true
	return nil
}

// cutter cuts and fingerprints chunks for one Run, on the hash workers
// and on the sink.
type cutter struct {
	in    *Ingest
	dec   chunker.Decider
	win   int
	probe func(fp.FP) bool

	obsOn         bool
	mxChunk, mxFP *obs.Histogram
}

// chunk cuts the chunk whose decision window is win, fingerprints and
// probes it.
func (c *cutter) chunk(win []byte) (n int, f fp.FP, hit bool) {
	if !c.obsOn {
		n = c.dec.Cut(win)
		f = fp.Of(win[:n])
	} else {
		t0 := time.Now()
		n = c.dec.Cut(win)
		t1 := time.Now()
		f = fp.Of(win[:n])
		d0, d1 := t1.Sub(t0), time.Since(t1)
		c.in.chunkNS.Add(int64(d0))
		c.in.fpNS.Add(int64(d1))
		c.mxChunk.Observe(uint64(d0))
		c.mxFP.Observe(uint64(d1))
	}
	return n, f, c.probe != nil && c.probe(f)
}

// speculate is a hash worker's pass over s: the chain that starts at its
// first byte, every chunk that starts in its owned run.
func (c *cutter) speculate(s *slab) {
	for p := 0; p < s.own; {
		win, ok := s.window(p, c.win)
		if !ok {
			return // the reader failed here; the sink reports it
		}
		n, f, hit := c.chunk(win)
		s.spec = append(s.spec, specChunk{off: p, n: n, fp: f, hit: hit})
		p += n
	}
}

// resync hands sink the chunks of s on the true chain, which enters s at
// *entry, and leaves *entry where the chain enters the next slab. Until the
// chain reaches a speculative start it cuts chunks itself; from the first
// start they share it adopts the speculative chain.
//
// A chunk the sink would cut itself borrows the cut of one of its last
// eight in s whose decision window is byte-equal: Cut is pure, so the
// chunk and its fingerprint are the same. Inside a run of identical bytes
// (or of a short repeating pattern) longer than a slab, chunks repeat
// with the run, and where the run began, not the slab grid, places them,
// so the chains almost never meet there; the compare keeps the sink from
// cutting and hashing such a slab alone. It cuts the first chunks of the
// run in each slab and borrows from then on, as long as chunk windows
// repeat within eight chunks: every chunk for a constant run, every
// P / gcd(P, Max) chunks for a pattern of period P cut only at Max.
func (c *cutter) resync(s *slab, entry *int, sink func(Chunk) error) error {
	p, k := *entry, 0
	// recent rings the sink's last chunks of s that it did not adopt, nr
	// counts them; n == 0 marks an empty entry.
	var recent [8]specChunk
	nr := 0
	for p < s.own {
		for k < len(s.spec) && s.spec[k].off < p {
			k++
		}
		var sc specChunk
		if k < len(s.spec) && s.spec[k].off == p {
			sc = s.spec[k]
		} else {
			win, ok := s.window(p, c.win)
			if !ok {
				break
			}
			for _, r := range recent {
				if rw, _ := s.window(r.off, c.win); r.n > 0 && bytes.Equal(rw, win) {
					sc = r
					break
				}
			}
			if sc.n == 0 {
				sc.n, sc.fp, sc.hit = c.chunk(win)
				c.in.recut++
			}
			sc.off = p
			recent[nr%len(recent)] = sc
			nr++
		}
		ch := Chunk{FP: sc.fp, Data: s.buf[p : p+sc.n], ProbeHit: sc.hit, slab: s}
		p += sc.n
		c.in.Chunks++
		c.in.LogicalBytes += uint64(len(ch.Data))
		s.refs.Add(1)
		if err := sink(ch); err != nil {
			return err
		}
	}
	if s.err != nil {
		return fmt.Errorf("backup: chunking: %w", s.err)
	}
	*entry = p - s.own
	s.release()
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
		ps := in.g.slabs.stats()
		mx.PoolInUse.Set(ps.InUse)
		mx.PoolInUseBytes.Set(ps.InUseBytes)
		mx.PoolSlabs.Set(int64(ps.SlabAllocs))
	}
	if tracer := in.g.cfg.Tracer; tracer != nil {
		// Chunking and fingerprinting run on the hash workers beside the
		// dedup sink, so their cost is the per-chunk sum (speculative
		// chunks the resync discarded included), not a wall interval.
		tracer.EmitStage("stage.chunking", in.Span, in.Start, time.Duration(in.chunkNS.Load()),
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
