package restorecache

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"hidestore/internal/container"
	"hidestore/internal/obs"
	"hidestore/internal/recipe"
)

// spanTargetBytes is the assembly span granularity: policies emit copy
// instructions in stream order, the assembler batches them into spans
// of at most this many payload bytes (a larger chunk is a span of its
// own), and each span becomes one Write on the destination (and, in
// parallel mode, one unit of worker work — large enough to amortize
// handoff, small enough that the reorder window stays a few megabytes).
const spanTargetBytes = 1 << 20

// spanOps is the instruction capacity each parallel span starts with: a
// span's chunk count when no chunk is below the default 2 KB minimum.
// A span of smaller chunks grows its list once and keeps it.
const spanOps = spanTargetBytes / 2048

// assemblyOp is one pending copy instruction: either "copy chunk e out
// of src" (src != nil) or "the payload is already in hand" (a chunk
// cache hit). Holding the *container.Container rather than copied
// bytes is what lets the copy itself move off the policy goroutine;
// fetched images are never mutated, so span workers may read one
// concurrently.
type assemblyOp struct {
	src  *container.Container
	data []byte
	e    recipe.Entry
}

// assembler receives a restore's chunk sequence in stream order and
// materializes it on the destination writer. The split keeps the cache
// policy the single decision-maker — which container to fetch, what to
// cache — while the byte movement becomes a pluggable stage: serial
// (inline copies, as before) or parallel (a worker pool filling spans
// out of order behind an in-order reorder window).
//
// The policy must call finish exactly once — with its error, or nil on
// success — and must not use the assembler afterwards. finish returns
// the error the restore should report; the assembler owns the
// destination writes and Stats.BytesRestored on every path.
type assembler interface {
	// chunk schedules chunk e to be copied out of src.
	chunk(src *container.Container, e recipe.Entry) error
	// cached schedules an already-materialized payload (a chunk cache
	// hit), held to the recipe's size as chunk is. data must stay
	// immutable until finish returns.
	cached(data []byte, e recipe.Entry) error
	// finish flushes (err == nil) or discards pending work, stops any
	// workers, and returns the restore's error.
	finish(err error) error
}

// newAssembler selects the assembly stage for w: a *ParallelWriter
// with Workers > 1 gets the out-of-order pool, anything else the
// inline serial path.
func newAssembler(w io.Writer, stats *Stats) assembler {
	if pw, ok := w.(*ParallelWriter); ok && pw.opts.Workers > 1 {
		a := pw.opts.Spans.get(pw.opts.Workers)
		a.start(pw, stats)
		return a
	}
	return &serialAssembler{w: w, stats: stats, span: spanBuilder{buf: make([]byte, 0, spanTargetBytes)}}
}

// spanBuilder moves chunk bytes into a span buffer once, straight from
// views of the fetched images. Recipe entries physically adjacent in one
// container — the common case: a stream is mostly restored in the order
// it was packed — gather into a run that moves with a single copy.
type spanBuilder struct {
	buf []byte
	// The pending run: src's payload bytes [off, end), not yet in buf.
	src      *container.Container
	off, end uint32
}

// size is the span's length so far, pending run included.
func (b *spanBuilder) size() int { return len(b.buf) + int(b.end-b.off) }

// checkSize enforces the recipe's size on a chunk of size bytes, so a
// corrupt payload cannot silently shift every later byte.
func checkSize(e recipe.Entry, size uint32) error {
	if size != e.Size {
		return fmt.Errorf("restore: chunk %s size %d, recipe says %d", e.FP.Short(), size, e.Size)
	}
	return nil
}

// chunk adds chunk e of src, held to the recipe's size.
func (b *spanBuilder) chunk(src *container.Container, e recipe.Entry) error {
	ce, ok := src.Entry(e.FP)
	if !ok {
		return fmt.Errorf("restore: container %d: %w: %s", src.ID(), container.ErrNotFound, e.FP.Short())
	}
	if err := checkSize(e, ce.Size); err != nil {
		return err
	}
	if src != b.src || ce.Offset != b.end {
		b.settle()
		b.src, b.off = src, ce.Offset
	}
	b.end = ce.Offset + ce.Size
	return nil
}

// bytes adds a payload that is already in hand.
func (b *spanBuilder) bytes(data []byte) {
	b.settle()
	b.buf = append(b.buf, data...)
}

// settle copies the pending run into buf and drops the image reference.
func (b *spanBuilder) settle() {
	if b.src != nil {
		b.buf = append(b.buf, b.src.Payload()[b.off:b.end]...)
		b.src, b.off, b.end = nil, 0, 0
	}
}

// serialAssembler copies inline on the policy goroutine and batches
// output into Writes of up to a span.
type serialAssembler struct {
	w     io.Writer
	stats *Stats
	span  spanBuilder
}

// reserve writes the span out if it cannot take n more bytes, so the
// buffer, allocated once at full size, regrows only for a chunk larger
// than a span.
func (s *serialAssembler) reserve(n int) error {
	if s.span.size()+n > spanTargetBytes {
		return s.flush()
	}
	return nil
}

func (s *serialAssembler) chunk(src *container.Container, e recipe.Entry) error {
	if err := s.reserve(int(e.Size)); err != nil {
		return err
	}
	return s.span.chunk(src, e)
}

func (s *serialAssembler) cached(data []byte, e recipe.Entry) error {
	if err := checkSize(e, uint32(len(data))); err != nil {
		return err
	}
	if err := s.reserve(len(data)); err != nil {
		return err
	}
	s.span.bytes(data)
	return nil
}

func (s *serialAssembler) flush() error {
	s.span.settle()
	if len(s.span.buf) == 0 {
		return nil
	}
	if _, err := s.w.Write(s.span.buf); err != nil {
		return fmt.Errorf("restore: write: %w", err)
	}
	s.stats.BytesRestored += uint64(len(s.span.buf))
	s.span.buf = s.span.buf[:0]
	return nil
}

func (s *serialAssembler) finish(err error) error {
	if err != nil {
		return err
	}
	return s.flush()
}

// ParallelOptions configures a ParallelWriter.
type ParallelOptions struct {
	// Workers is the number of span-assembly goroutines; values below 2
	// keep assembly inline (serial).
	Workers int
	// Spans, when set, keeps the assembler and its span buffers for the
	// next restore through the same pool; nil recycles spans within this
	// restore only.
	Spans *SpanPool
	// Metrics, when set, exposes the pool's occupancy, span count and
	// the writer's in-order stall latency.
	Metrics *obs.RestoreMetrics
	// Tracer and Span, when set, mirror each writer stall as an
	// "assembly.stall" trace record under Span (the restore span), so
	// offline reports can attribute reorder-window time: how long the
	// in-order writer sat blocked while out-of-order spans waited. The
	// writer goroutine is joined by finish before the restore span
	// ends, so every stall record lands inside its parent's interval.
	Tracer *obs.Tracer
	Span   *obs.Span
}

// ParallelWriter marks a restore destination as eligible for parallel
// out-of-order assembly. Policies hand their stream to newAssembler,
// which recognizes the wrapper; code that treats it as a plain
// io.Writer still restores correctly (Write passes through), so the
// wrapper is always safe to install.
type ParallelWriter struct {
	w    io.Writer
	opts ParallelOptions
}

// NewParallelWriter wraps w for parallel assembly with opts.
func NewParallelWriter(w io.Writer, opts ParallelOptions) *ParallelWriter {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	return &ParallelWriter{w: w, opts: opts}
}

// Write implements io.Writer by passing through.
func (p *ParallelWriter) Write(b []byte) (int, error) { return p.w.Write(b) }

// errAssemblyAborted tells the policy the writer already failed, so
// fetching further containers is pointless; finish maps it back to the
// writer's real error.
var errAssemblyAborted = errors.New("restorecache: assembly aborted")

// spanItem is one span moving through the pool: ops in, buf out. seq
// is its position in the stream; the writer only releases spans in seq
// order, so the output is byte-identical to serial assembly no matter
// how workers interleave.
type spanItem struct {
	seq  int
	ops  []assemblyOp
	size int
	buf  []byte
	err  error
}

// SpanPool keeps a parallel assembler between restores: its spans — each
// a span buffer and an instruction list — and the channels that move
// them. At one span per ~1 MB restored, allocating spans afresh would
// allocate the restored size again on every restore; through a pool, a
// restore allocates none once an earlier one of the same width has run.
// It holds at most one idle assembler, so at most 2·Workers + 3 spans.
// The zero value is ready; restores that overlap each take their own
// assembler. A nil *SpanPool keeps nothing.
type SpanPool struct {
	mu   sync.Mutex
	idle *parallelAssembler
}

// get returns the idle assembler if it is workers wide, else a new one.
func (p *SpanPool) get(workers int) *parallelAssembler {
	var a *parallelAssembler
	if p != nil {
		p.mu.Lock()
		a, p.idle = p.idle, nil
		p.mu.Unlock()
	}
	if a == nil || a.workers != workers {
		a = newParallelAssembler(workers)
	}
	return a
}

// put makes a, stopped and unbound, the idle assembler.
func (p *SpanPool) put(a *parallelAssembler) {
	if p != nil {
		p.mu.Lock()
		p.idle = a
		p.mu.Unlock()
	}
}

// parallelAssembler fans span filling out to a worker pool and merges
// the results back in order:
//
//	spare ──▶ policy ──▶ work ──▶ workers ──▶ filled ──▶ writer ──▶ w
//	  ▲                                                    │
//	  └────────────────────────────────────────────────────┘
//
// A fixed set of 2·workers + 3 spans circulates: the policy takes a
// spare one to build, dispatch hands it to a worker, and the writer
// returns it to the spares once the destination's Write has returned
// (Write may not retain its slice) or once it is discarded — on every
// path. So at most 2·workers + 2 spans (a few MB plus their container
// references) sit between dispatch and the writer's in-order release
// while the policy builds the next — the reorder window, bounded by
// construction like the backup sink's credit-bounded reorder map — and
// the policy backpressures on the spares instead of ballooning. `filled`
// can hold every span, so worker hand-off never blocks.
//
// An assembler outlives its restore: start binds it to one and launches
// its goroutines, finish stops them and hands it, spans intact, to the
// writer's SpanPool. A span's buffer is allocated the first time it is
// filled and kept from then on, so a restore that never has many spans in
// flight allocates few.
//
// Accounting is untouched by construction: workers only copy out of
// containers the policy already fetched through its counting layer —
// no code here calls a Fetcher — so worker count can never change
// which containers are read, or how often.
type parallelAssembler struct {
	workers int
	// spare holds the spans not in use, the most recently returned last,
	// so a small restore keeps reusing the same few warm spans; tokens
	// counts them, so taking one waits while every span is in use.
	mu     sync.Mutex
	spare  []*spanItem
	tokens chan struct{}
	filled chan *spanItem
	// park is the writer's reorder window, indexed by seq modulo its
	// length: every span it holds is less than one circulation ahead of
	// the next to write.
	park []*spanItem
	// runWorker and runWriter are the goroutines' bodies as func values,
	// made once so that starting them allocates nothing.
	runWorker, runWriter func()

	// One restore's, from start to finish; finish closes work to stop
	// the workers.
	work   chan *spanItem
	pw     *ParallelWriter
	stats  *Stats
	mx     *obs.RestoreMetrics
	tracer *obs.Tracer
	span   *obs.Span
	cur    *spanItem
	seq    int

	wg         sync.WaitGroup
	writerDone sync.WaitGroup
	// err is the first error in stream order (a span's fill failure or
	// a destination write failure). Written only by the writer
	// goroutine; read by finish after writerDone is done.
	err     error
	aborted atomic.Bool
}

func newParallelAssembler(workers int) *parallelAssembler {
	n := 2*workers + 3
	a := &parallelAssembler{
		workers: workers,
		spare:   make([]*spanItem, n),
		tokens:  make(chan struct{}, n),
		filled:  make(chan *spanItem, n),
		park:    make([]*spanItem, n),
	}
	spans := make([]spanItem, n)
	ops := make([]assemblyOp, n*spanOps)
	for i := range spans {
		spans[i].ops = ops[i*spanOps : i*spanOps : (i+1)*spanOps]
		a.spare[i] = &spans[i]
		a.tokens <- struct{}{}
	}
	a.runWorker, a.runWriter = a.worker, a.writer
	return a
}

// start binds a to one restore onto pw and launches its goroutines.
func (a *parallelAssembler) start(pw *ParallelWriter, stats *Stats) {
	a.pw, a.stats = pw, stats
	a.mx, a.tracer, a.span = pw.opts.Metrics, pw.opts.Tracer, pw.opts.Span
	a.work = make(chan *spanItem)
	a.wg.Add(a.workers)
	for i := 0; i < a.workers; i++ {
		go a.runWorker()
	}
	a.writerDone.Add(1)
	go a.runWriter()
}

func (a *parallelAssembler) chunk(src *container.Container, e recipe.Entry) error {
	return a.add(assemblyOp{src: src, e: e}, int(e.Size))
}

func (a *parallelAssembler) cached(data []byte, e recipe.Entry) error {
	if err := checkSize(e, uint32(len(data))); err != nil {
		return err
	}
	return a.add(assemblyOp{data: data, e: e}, len(data))
}

// add appends o to the span being built, dispatching that span first if
// o would take it past spanTargetBytes — the serial assembler's rule, so
// both cut the stream into the same Writes and a kept buffer of
// spanTargetBytes always fits (only a larger chunk regrows one).
func (a *parallelAssembler) add(o assemblyOp, size int) error {
	if a.aborted.Load() {
		return errAssemblyAborted
	}
	if a.cur != nil && a.cur.size+size > spanTargetBytes {
		a.dispatch()
	}
	if a.cur == nil {
		a.cur = a.take()
		a.cur.seq = a.seq
		a.seq++
	}
	a.cur.ops = append(a.cur.ops, o)
	a.cur.size += size
	return nil
}

// dispatch hands the current span to the pool.
func (a *parallelAssembler) dispatch() {
	if a.mx != nil {
		a.mx.AssemblySpans.Inc()
	}
	a.work <- a.cur
	a.cur = nil
}

func (a *parallelAssembler) worker() {
	defer a.wg.Done()
	for it := range a.work {
		if !a.aborted.Load() {
			if a.mx != nil {
				a.mx.AssemblyWorkersBusy.Add(1)
			}
			fillSpan(it)
			if a.mx != nil {
				a.mx.AssemblyWorkersBusy.Add(-1)
			}
		}
		// After an abort the span passes through unfilled: seq must stay
		// contiguous so the writer can keep draining and returning spans.
		// The send never blocks — filled can hold every span.
		a.filled <- it
	}
}

// fillSpan materializes a span's instructions into its buffer, which
// takes the span without regrowing: the dispatcher summed the recipe
// sizes chunk enforces.
func fillSpan(it *spanItem) {
	if cap(it.buf) < it.size {
		it.buf = make([]byte, 0, max(it.size, spanTargetBytes))
	}
	b := spanBuilder{buf: it.buf[:0]}
	for _, o := range it.ops {
		if o.src == nil {
			b.bytes(o.data)
		} else if it.err = b.chunk(o.src, o.e); it.err != nil {
			break
		}
	}
	b.settle()
	it.buf = b.buf
	clear(it.ops) // release the container references with the copy done
}

// writer parks filled spans in the reorder window and releases them to
// the destination strictly in seq order, until it receives nil.
func (a *parallelAssembler) writer() {
	defer a.writerDone.Done()
	next, parked := 0, 0
	for {
		// A blocking wait with parked out-of-order spans is an assembly
		// stall: the pipeline produced work but not the span the output
		// needs next.
		var stalled time.Time
		if (a.mx != nil || a.tracer != nil) && parked > 0 {
			stalled = time.Now()
		}
		it := <-a.filled
		if it == nil {
			return
		}
		if !stalled.IsZero() {
			d := time.Since(stalled)
			if a.mx != nil {
				a.mx.AssemblyStallNS.Observe(uint64(d))
			}
			// One record per stall interval: offline reports sum these
			// against the restore's container.fetch time to attribute
			// where a parallel restore's wall clock went.
			a.tracer.EmitStage("assembly.stall", a.span, stalled, d,
				map[string]int64{"parked": int64(parked), "seq": int64(next)})
		}
		a.park[it.seq%len(a.park)] = it
		parked++
		for {
			slot := next % len(a.park)
			n := a.park[slot]
			if n == nil {
				break
			}
			a.park[slot] = nil
			parked--
			next++
			a.release(n)
		}
	}
}

// release writes one in-order span (or discards it after a failure),
// then recycles it.
func (a *parallelAssembler) release(it *spanItem) {
	defer a.recycle(it)
	if a.err != nil {
		return // a prior span already failed; discard
	}
	if it.err != nil {
		a.err = it.err
		a.aborted.Store(true)
		return
	}
	if _, err := a.pw.w.Write(it.buf); err != nil {
		a.err = fmt.Errorf("restore: write: %w", err)
		a.aborted.Store(true)
		return
	}
	a.stats.BytesRestored += uint64(len(it.buf))
}

// take returns the most recently recycled spare span. Waiting for one is
// deadlock-free: the writer recycles every span on every path, and the
// pool drains independently of the policy.
func (a *parallelAssembler) take() *spanItem {
	<-a.tokens
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.spare) - 1
	it := a.spare[n]
	a.spare = a.spare[:n]
	return it
}

// recycle empties it, dropping its container references, and makes it a
// spare again. Neither step blocks or allocates: spare and tokens have
// room for every span.
func (a *parallelAssembler) recycle(it *spanItem) {
	clear(it.ops)
	*it = spanItem{ops: it.ops[:0], buf: it.buf[:0]}
	a.mu.Lock()
	a.spare = append(a.spare, it)
	a.mu.Unlock()
	a.tokens <- struct{}{}
}

func (a *parallelAssembler) finish(err error) error {
	if a.cur != nil {
		if err == nil {
			a.dispatch()
		} else {
			a.recycle(a.cur)
			a.cur = nil
		}
	}
	close(a.work)
	a.wg.Wait()
	a.filled <- nil // after every span: the workers have sent them all
	a.writerDone.Wait()
	// The writer's error is earlier in stream order than anything the
	// policy hit afterwards (and is what errAssemblyAborted stands for).
	if a.err != nil {
		err = a.err
	} else if errors.Is(err, errAssemblyAborted) {
		err = nil // unreachable: aborted implies a.err != nil
	}
	// Every span is a spare again; unbind the restore and keep the rest.
	pool := a.pw.opts.Spans
	a.pw, a.stats, a.mx, a.tracer, a.span = nil, nil, nil, nil, nil
	a.seq, a.err = 0, nil
	a.aborted.Store(false)
	pool.put(a)
	return err
}
