package backup

import (
	"bytes"
	"context"
	"encoding/binary"
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
	"hidestore/internal/recipe"
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
	// CommitDepth is the width of each backup's commit plane.
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
	// prev is the successor table of the last successful Run, or the one
	// Seed built, read by the next Run's cutters (see cutter.chunk); nil
	// when none is known or the chunker cannot confirm a cut.
	prev successors
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

	// The cutters' work summed over the hash workers and the resync (see
	// cutWork), speculative chunks the resync discarded included. The
	// counts are exact, whatever the scheduling.
	chunkNS, fpNS                             atomic.Int64
	confirmed, scanned                        atomic.Int64
	confirmedBytes, scannedBytes, hashedBytes atomic.Int64
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
	in.Writer = container.NewAsyncWriter(ctx, g.cfg.CommitDepth,
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
// probe it speculatively, as if a chunk started at its first byte; where
// the last successful Run cut the same bytes, they confirm its cut
// instead of scanning (see cutter.chunk). The sink, in stream order,
// resyncs: from the offset at which the true chain enters the slab it
// cuts and hashes chunk by chunk until it reaches a speculative chunk
// start, and from there adopts the worker's chunks. A cut is a pure
// function of the window that starts at the previous cut, so two chains
// that share one start share every start after it. Inside a run of
// identical bytes longer than a slab the chains almost never meet, at
// any parameters; there the sink borrows the cut of an earlier
// chunk with a byte-equal window (see resync). What neither rescues —
// fixed-size chunks whose size does not divide the slab, patterns whose
// windows repeat only after more than eight chunks — is cut on the sink
// alone: still the same chunks, but serially.
//
// probe, when non-nil, classifies a chunk's fingerprint speculatively on
// the hash workers (or on the sink for chunks the resync cut itself); its
// verdict travels with the chunk, so it must be safe for concurrent use
// and read-only. resident, when non-nil, returns the bytes of a chunk the
// engine holds in memory by fingerprint, or nil; a predicted cut is then
// proven by comparing against them instead of by SHA-1 (see cutter.chunk).
// It runs on the hash workers too, under the same rules, and its bytes
// must not change while Run lasts. sink runs on one goroutine, in stream
// order, and must Release every chunk it is handed. A reader error is
// returned after every chunk whose decision window was read before it.
func (in *Ingest) Run(ctx context.Context, version io.Reader, probe func(fp.FP) bool, resident func(fp.FP) []byte, sink func(Chunk) error) error {
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
	c := &cutter{in: in, dec: dec, win: dec.Window(), probe: probe, resident: resident, prev: g.prev,
		obsOn: cfg.Metrics != nil || cfg.Tracer != nil}
	if dec.Confirmable() {
		// A new table each Run: the Ingester holds at most the last
		// version's table and the one being filled.
		c.cur = make(successors, len(g.prev))
	}
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
		// A partial table would be exact too, but the version it
		// describes was not backed up: keep the last one.
		return err
	}
	// Ordered has joined every goroutine: no cutter reads prev any more,
	// and the last version's table goes to the collector.
	g.prev = c.cur
	in.ingested = true
	return nil
}

// successors is a successor table: for each chunk one Run handed the
// sink, the chunk that came right after it, keyed by the first 8 bytes of
// the earlier chunk's fingerprint. A chunk that occurs twice keeps its
// last successor; a key collision only yields a guess that fails
// verification.
type successors map[uint64]successor

type successor struct {
	n  int32
	fp fp.FP
}

func succKey(f *fp.FP) uint64 { return binary.LittleEndian.Uint64(f[:8]) }

// Seed gives the next Run the successor table of a version this Ingester
// did not back up itself — the newest one of a reopened store — so its
// first backup confirms cuts too. alg and p are the chunker and
// parameters that version was cut with, and load returns its chunk list
// in stream order (a recipe's entries). Seed does nothing, and does not
// call load, unless alg and p are this Ingester's own, its chunker can
// confirm a cut and no Run has left a table: an entry proves a cut only
// under the Decider that made it (see cutter.chunk). A load error only
// costs the speed-up, so Seed drops it.
func (g *Ingester) Seed(alg chunker.Algorithm, p chunker.Params, load func() ([]recipe.Entry, error)) {
	if g.prev != nil || alg != g.cfg.Chunker || p != g.cfg.ChunkParams {
		return
	}
	dec, err := chunker.NewDecider(alg, p)
	if err != nil || !dec.Confirmable() {
		return
	}
	entries, err := load()
	if err != nil {
		return
	}
	t := make(successors, len(entries))
	for i := 1; i < len(entries); i++ {
		t[succKey(&entries[i-1].FP)] = successor{n: int32(entries[i].Size), fp: entries[i].FP}
	}
	g.prev = t
}

// cutter cuts and fingerprints chunks for one Run, on the hash workers
// and on the sink.
type cutter struct {
	in       *Ingest
	dec      chunker.Decider
	win      int
	probe    func(fp.FP) bool
	resident func(fp.FP) []byte
	// prev is read-only while the Run lasts; cur (nil when the chunker
	// cannot confirm a cut) is written by the sink alone, one entry per
	// chunk it hands on, keyed by the fingerprint of the chunk it handed
	// on before (last, nil before the first).
	prev, cur successors
	last      *fp.FP
	lastFP    fp.FP

	obsOn         bool
	mxChunk, mxFP *obs.Histogram
}

// chunk cuts the chunk whose decision window is win, fingerprints and
// probes it, adding what it did to w. pred, when non-nil, is the
// fingerprint of the chunk that ends where win begins.
//
// With a predecessor, the chunk that followed it in the previous version
// — n bytes, fingerprint F — is accepted without a scan when
// Decider.Confirms(win, n) and win[:n] are F's bytes; otherwise the window
// is scanned as without a predecessor. Why that is Cut(win) exactly: a
// cut is a pure function of the window from the previous cut, and for
// TTTD and Rabin with Min above the 48-byte digest window (the only cases
// Confirms accepts) Cut returns the first length c ≥ Min whose digest —
// a function of the 48 bytes before c alone — matches the main divisor.
// Every table entry is a chunk Cut produced under this Decider — by an
// earlier Run, or by the backup whose chunk list Seed was given under
// the same chunker and parameters — so no c in [Min, n) of its bytes
// matched, or that scan would have cut there. A main match at n is then
// the first, and Cut(win) == n. A recorded chunk cut by the backup
// divisor, at Max or at the end of the stream has no main match at n —
// those cuts read bytes past n, which may have changed — and Confirms
// refuses it.
//
// That win[:n] are F's bytes is proven one of two ways. When resident
// holds F — the engine keeps the previous version's hot chunks in memory
// — by bytes.Equal against that copy: nothing is hashed, and byte
// equality needs no collision assumption. A compare that fails, or an F
// that is not resident, scans, and the scanned chunk is hashed once.
// Without a resident hook, by fp.Of(win[:n]) == F, the assumption every
// dedup decision here already rests on; a hash that differs scans, and
// reuses the hash when the scan cuts at n again (an edit inside a chunk).
//
// With observability on, a confirmed chunk records the lookup and
// Confirms as its chunking time and the compare or SHA-1 as its
// fingerprint time.
func (c *cutter) chunk(win []byte, pred *fp.FP, w *cutWork) (n int, f fp.FP, hit bool) {
	var t time.Time
	if c.obsOn {
		t = time.Now()
	}
	var cutNS, fpNS time.Duration
	guess := 0 // a confirmed length whose SHA-1 differed
	if pred != nil && len(c.prev) > 0 {
		if s, ok := c.prev[succKey(pred)]; ok && c.dec.Confirms(win, int(s.n)) {
			cutNS += c.lap(&t)
			if c.resident != nil {
				if b := c.resident(s.fp); b != nil && bytes.Equal(win[:s.n], b) {
					n, f = int(s.n), s.fp
				}
			} else if f = hash(win[:s.n], w); f == s.fp {
				n = int(s.n)
			} else {
				guess = int(s.n)
			}
			fpNS += c.lap(&t)
			if n != 0 {
				w.confirmed++
				w.confirmedBytes += int64(n)
			}
		}
	}
	if n == 0 {
		n = c.dec.Cut(win)
		cutNS += c.lap(&t)
		w.scanned++
		w.scannedBytes += int64(n)
		// An edit inside a chunk leaves its cut in place: then the hash
		// taken to check the guess is the chunk's.
		if n != guess {
			f = hash(win[:n], w)
			fpNS += c.lap(&t)
		}
	}
	if c.obsOn {
		w.chunkNS += cutNS
		w.fpNS += fpNS
		c.mxChunk.Observe(uint64(cutNS))
		c.mxFP.Observe(uint64(fpNS))
	}
	return n, f, c.probe != nil && c.probe(f)
}

// hash fingerprints b, counting its bytes in w.
func hash(b []byte, w *cutWork) fp.FP {
	w.hashedBytes += int64(len(b))
	return fp.Of(b)
}

// cutWork is what the cutters did over one slab: the chunks they took
// from the successor table and the ones they scanned, those chunks'
// lengths, the bytes SHA-1 read and, with observability on, the scan and
// hash time. The goroutine cutting the slab sums it and adds it to the
// Ingest's totals once, so no shared counter is touched per chunk.
type cutWork struct {
	confirmed, scanned                        int64
	confirmedBytes, scannedBytes, hashedBytes int64
	chunkNS, fpNS                             time.Duration
}

func (in *Ingest) add(w *cutWork) {
	in.confirmed.Add(w.confirmed)
	in.scanned.Add(w.scanned)
	in.confirmedBytes.Add(w.confirmedBytes)
	in.scannedBytes.Add(w.scannedBytes)
	in.hashedBytes.Add(w.hashedBytes)
	in.chunkNS.Add(int64(w.chunkNS))
	in.fpNS.Add(int64(w.fpNS))
}

// lap returns the time since *t and moves *t to now; 0 with observability
// off, when *t was never set.
func (c *cutter) lap(t *time.Time) time.Duration {
	if !c.obsOn {
		return 0
	}
	now := time.Now()
	d := now.Sub(*t)
	*t = now
	return d
}

// handOn records sc in the successor table as the successor of the chunk
// handed on before it; the sink calls it for every chunk, in stream order.
func (c *cutter) handOn(sc *specChunk) {
	if c.cur == nil {
		return
	}
	if c.last != nil {
		c.cur[succKey(c.last)] = successor{n: int32(sc.n), fp: sc.fp}
	}
	c.lastFP, c.last = sc.fp, &c.lastFP
}

// speculate is a hash worker's pass over s: the chain that starts at its
// first byte, every chunk that starts in its owned run.
func (c *cutter) speculate(s *slab) {
	var w cutWork
	defer c.in.add(&w)
	var last fp.FP
	var pred *fp.FP // the slab's first chunk has no known predecessor
	for p := 0; p < s.own; {
		win, ok := s.window(p, c.win)
		if !ok {
			return // the reader failed here; the sink reports it
		}
		n, f, hit := c.chunk(win, pred, &w)
		s.spec = append(s.spec, specChunk{off: p, n: n, fp: f, hit: hit})
		last, pred = f, &last
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
	var w cutWork
	defer c.in.add(&w)
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
				sc.n, sc.fp, sc.hit = c.chunk(win, c.last, &w)
				c.in.recut++
			}
			sc.off = p
			recent[nr%len(recent)] = sc
			nr++
		}
		c.handOn(&sc)
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
		mx.ScannedBytes.Add(uint64(in.scannedBytes.Load()))
		mx.HashedBytes.Add(uint64(in.hashedBytes.Load()))
		ps := in.g.slabs.stats()
		mx.PoolInUse.Set(ps.InUse)
		mx.PoolInUseBytes.Set(ps.InUseBytes)
		mx.PoolSlabs.Set(int64(ps.SlabAllocs))
	}
	if tracer := in.g.cfg.Tracer; tracer != nil {
		// Chunking and fingerprinting run on the hash workers beside the
		// dedup sink, so their cost is the per-chunk sum (speculative
		// chunks the resync discarded included), not a wall interval.
		// confirmed and scanned count the cuts taken from the successor
		// table and the scans; scanned_bytes is what the scans cut and
		// hashed_bytes what SHA-1 read. A cut confirmed by a byte compare
		// counts its compare as fingerprint time.
		tracer.EmitStage("stage.chunking", in.Span, in.Start, time.Duration(in.chunkNS.Load()),
			map[string]int64{"chunks": int64(in.Chunks), "bytes": int64(in.LogicalBytes),
				"confirmed": in.confirmed.Load(), "scanned": in.scanned.Load(), "scanned_bytes": in.scannedBytes.Load()})
		tracer.EmitStage("stage.fingerprint", in.Span, in.Start, time.Duration(in.fpNS.Load()),
			map[string]int64{"chunks": int64(in.Chunks), "bytes": int64(in.LogicalBytes), "hashed_bytes": in.hashedBytes.Load()})
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
		ScannedBytes:          uint64(in.scannedBytes.Load()),
		HashedBytes:           uint64(in.hashedBytes.Load()),
		CommitWait:            commitWait,
		Duration:              time.Since(in.Start),
	}
}
