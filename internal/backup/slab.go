package backup

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"hidestore/internal/fp"
)

// slabBytes is the run of the version one stream slab owns. Measured on a
// 2-vCPU Xeon host, kernel-mem, three alternating runs each: 256 KiB,
// 1 MiB and 4 MiB slabs back up at 423 / 414 / 408 MB/s (medians), no
// difference beyond the host's noise. 1 MiB is the middle: 4 MiB would put
// ≈ 40 MiB in flight at four workers for nothing, and 256 KiB quadruples
// the hand-offs and the chunks the sink re-cuts at slab starts.
const slabBytes = 1 << 20

// Chunk is one chunk as Run hands it to the sink, in stream order.
type Chunk struct {
	FP fp.FP
	// Data is a view into a stream slab, valid until Release. The sink
	// never writes to it and copies what it keeps: container.Packer.Add
	// is the one copy a stored chunk's bytes make.
	Data []byte
	// ProbeHit is the probe's verdict on FP; see Run.
	ProbeHit bool
	slab     *slab
}

// Release ends the sink's hold on c.Data. The engine calls it exactly once
// per chunk, once the chunk is classified duplicate or copied into a
// container. A slab is reused once every chunk that starts in it is
// released and the pipeline is done with it.
func (c Chunk) Release() { c.slab.release() }

// slab is one stream slab: the version's bytes from the slab's first
// owned offset on, the owned run plus the decision window after it, so
// every chunk that starts in the owned run — and the window that decides
// it — lies wholly in buf. The window's bytes are copied in from the head
// of the next run; they are the next slab's first bytes too.
type slab struct {
	buf []byte // size + window bytes; buf[:n] are valid
	n   int
	// own ends the owned run: chunks starting before it belong to this
	// slab. It is the pool's size, or n when the stream ends in this slab.
	own int
	// eof: the stream ends at buf[n]. err: the reader failed there.
	eof bool
	err error
	// spec is a hash worker's speculative chain: the chunks cut as if a
	// cut fell at offset 0, fingerprinted and probed.
	spec []specChunk
	// refs counts the holds on buf: the pipeline's until the sink is done
	// with the slab, the producer's until the next slab has its overlap,
	// and one per chunk handed to the engine and not yet released.
	refs atomic.Int32
	pool *slabPool
}

// specChunk is one chunk of a speculative chain.
type specChunk struct {
	off, n int
	fp     fp.FP
	hit    bool
}

// window returns the decision window of a chunk starting at p, which is
// short only at the end of the stream; false means the reader failed
// before the window was complete.
func (s *slab) window(p, win int) ([]byte, bool) {
	if end := p + win; end <= s.n {
		return s.buf[p:end], true
	}
	return s.buf[p:s.n], s.eof
}

func (s *slab) release() {
	if s.refs.Add(-1) == 0 {
		s.pool.put(s)
	}
}

// slabPool recycles an Ingester's slabs across backups. It never makes a
// caller wait: a slab is allocated when none is free, so what bounds the
// slab count is the pipeline's in-flight cap plus what the engine holds.
type slabPool struct {
	size, window int

	mu     sync.Mutex
	free   []*slab
	inUse  int64
	allocs uint64
}

func newSlabPool(size, window int) *slabPool {
	return &slabPool{size: size, window: window}
}

func (p *slabPool) get() *slab {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inUse++
	var s *slab
	if n := len(p.free); n > 0 {
		s = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		p.allocs++
		s = &slab{buf: make([]byte, p.size+p.window), pool: p}
	}
	s.n, s.own, s.eof, s.err, s.spec = 0, 0, false, nil, s.spec[:0]
	return s
}

func (p *slabPool) put(s *slab) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.inUse--
	p.free = append(p.free, s)
}

// slabStats is the pool's state for the hidestore_bufpool_* gauges.
type slabStats struct {
	InUse      int64 // slabs out of the pool
	InUseBytes int64
	SlabAllocs uint64 // cumulative slab allocations
}

func (p *slabPool) stats() slabStats {
	if p == nil {
		return slabStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return slabStats{InUse: p.inUse, InUseBytes: p.inUse * int64(p.size+p.window), SlabAllocs: p.allocs}
}

// read is the ingest's producer: it cuts r into slabs and emits them in
// stream order. It only reads and copies each slab's overlap window; it
// returns once the stream ends, or fails, or emit refuses a slab. A reader
// error is not returned here: it travels in the slab it cut short, so the
// sink surfaces it in stream order, after every chunk that precedes it.
func (p *slabPool) read(ctx context.Context, r io.Reader, emit func(*slab) bool) error {
	var prev *slab
	for {
		s := p.get()
		n := 0
		if prev != nil {
			n = copy(s.buf, prev.buf[p.size:prev.n])
			prev.release()
		}
		for n < len(s.buf) && !s.eof && s.err == nil {
			if err := ctx.Err(); err != nil {
				return err
			}
			m, err := r.Read(s.buf[n:])
			n += m
			switch {
			case errors.Is(err, io.EOF):
				s.eof = true
			case err != nil:
				s.err = err
			}
		}
		s.n, s.own = n, p.size
		if s.eof || s.err != nil {
			s.own = n
		}
		s.refs.Store(2)
		if !emit(s) {
			return nil
		}
		if s.eof || s.err != nil {
			s.release()
			return nil
		}
		prev = s
	}
}
