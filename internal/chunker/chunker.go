// Package chunker splits data streams into variable-size chunks.
//
// Chunk-based deduplication (§2.1 of the paper) divides each backup stream
// into chunks of 4-8 KB on average. This package implements the chunking
// algorithms referenced by the paper: fixed-size chunking, Rabin-based CDC,
// TTTD (the algorithm HiDeStore's prototype uses), FastCDC, and AE. All are
// content-defined except the fixed-size chunker, so inserting bytes near
// the front of a stream only disturbs chunk boundaries locally (the
// boundary-shift problem, §4.2).
//
// All chunkers are deterministic: the same input bytes always produce the
// same chunk sequence, which is what makes fingerprint-based deduplication
// possible across backup versions.
package chunker

import (
	"errors"
	"fmt"
	"io"

	"hidestore/internal/bufpool"
)

// Algorithm selects a chunking algorithm.
type Algorithm int

// Supported chunking algorithms.
const (
	Fixed Algorithm = iota + 1
	Rabin
	TTTD
	FastCDC
	AE
)

// String returns the conventional lowercase name of the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Fixed:
		return "fixed"
	case Rabin:
		return "rabin"
	case TTTD:
		return "tttd"
	case FastCDC:
		return "fastcdc"
	case AE:
		return "ae"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps a name (as produced by String) to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "fixed":
		return Fixed, nil
	case "rabin":
		return Rabin, nil
	case "tttd":
		return TTTD, nil
	case "fastcdc":
		return FastCDC, nil
	case "ae":
		return AE, nil
	default:
		return 0, fmt.Errorf("chunker: unknown algorithm %q", s)
	}
}

// Params bound the chunk sizes produced by a chunker.
type Params struct {
	// Min is the minimum chunk size in bytes. Only the final chunk of a
	// stream may be smaller.
	Min int
	// Avg is the target average chunk size in bytes; content-defined
	// chunkers derive their divisors from it. Must be a power of two for
	// mask-based algorithms; non-powers are rounded up.
	Avg int
	// Max is the maximum chunk size in bytes; a cut is forced at Max.
	Max int
}

// DefaultParams returns the paper's configuration: 4 KB average chunks
// with 2 KB / 16 KB bounds (the common destor defaults).
func DefaultParams() Params {
	return Params{Min: 2 * 1024, Avg: 4 * 1024, Max: 16 * 1024}
}

// Validate checks the parameter invariants.
func (p Params) Validate() error {
	switch {
	case p.Min <= 0 || p.Avg <= 0 || p.Max <= 0:
		return errors.New("chunker: sizes must be positive")
	case p.Min > p.Avg:
		return fmt.Errorf("chunker: min %d > avg %d", p.Min, p.Avg)
	case p.Avg > p.Max:
		return fmt.Errorf("chunker: avg %d > max %d", p.Avg, p.Max)
	default:
		return nil
	}
}

// Chunker produces successive chunks from a data stream.
type Chunker interface {
	// Next returns the next chunk's bytes. The returned slice is owned by
	// the caller. At end of stream Next returns nil, io.EOF. A non-EOF
	// error reports a failure of the underlying reader.
	Next() ([]byte, error)
}

// New constructs a Chunker of the given algorithm over r. Chunks are
// plain allocations owned by the caller.
func New(alg Algorithm, r io.Reader, p Params) (Chunker, error) {
	return NewPooled(alg, r, p, nil)
}

// NewPooled is New with chunk buffers drawn from pool: every slice
// Next returns is a pooled buffer the consumer must Release (or hand
// off to an owner who will) once the chunk is dealt with. A nil pool
// degrades to plain allocation. Cut points are identical to New's —
// pooling changes only where the copy lands. Backups do not use it (they
// cut views into stream slabs through a Decider); the chunker layer
// measurements do.
func NewPooled(alg Algorithm, r io.Reader, p Params, pool *bufpool.Pool) (Chunker, error) {
	d, err := NewDecider(alg, p)
	if err != nil {
		return nil, err
	}
	s := newScanner(r, d.Window())
	s.pool = pool
	return &seq{s: s, d: d}, nil
}

// seq is the sequential chunker: one decision window at a time, cut
// decided by the shared Decider, chunk copied out by the scanner.
type seq struct {
	s *scanner
	d Decider
}

func (c *seq) Next() ([]byte, error) {
	win := c.s.window(c.d.Window())
	if err := c.s.failed(); err != nil {
		return nil, err
	}
	if len(win) == 0 {
		return nil, io.EOF
	}
	return c.s.take(c.d.Cut(win)), nil
}

// Split is a convenience that chunks an entire byte slice in memory and
// returns the chunk boundaries as sub-slice copies.
func Split(alg Algorithm, data []byte, p Params) ([][]byte, error) {
	c, err := New(alg, bytesReader(data), p)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for {
		chunk, err := c.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, chunk)
	}
}

// bytesReader avoids importing bytes just for bytes.NewReader.
func bytesReader(b []byte) io.Reader { return &sliceReader{b: b} }

type sliceReader struct{ b []byte }

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// scanner maintains a sliding window over an io.Reader so chunkers can
// examine up to Max bytes ahead before deciding a cut point.
type scanner struct {
	r     io.Reader
	buf   []byte
	start int // first unconsumed byte
	end   int // one past last valid byte
	err   error
	pool  *bufpool.Pool // nil: take() allocates
}

func newScanner(r io.Reader, maxChunk int) *scanner {
	// Buffer twice the max chunk size so that a full window is usually
	// available without shifting on every chunk.
	return &scanner{r: r, buf: make([]byte, 2*maxChunk)}
}

// window ensures up to want bytes are buffered and returns the available
// prefix. It returns a shorter slice only at end of stream. A nil slice
// with s.err == io.EOF means the stream is exhausted.
func (s *scanner) window(want int) []byte {
	if s.end-s.start >= want {
		return s.buf[s.start : s.start+want]
	}
	if s.err == nil {
		if len(s.buf)-s.start < want {
			// Shift remaining bytes to the front to make room.
			copy(s.buf, s.buf[s.start:s.end])
			s.end -= s.start
			s.start = 0
		}
		for s.end-s.start < want && s.err == nil {
			var n int
			n, s.err = s.r.Read(s.buf[s.end:])
			s.end += n
		}
	}
	if avail := s.end - s.start; avail < want {
		return s.buf[s.start : s.start+avail]
	}
	return s.buf[s.start : s.start+want]
}

// take consumes n bytes from the window and returns them as a fresh
// copy — pooled when the scanner has a pool (the caller then owns the
// buffer until Release), plain-allocated otherwise.
func (s *scanner) take(n int) []byte {
	var out []byte
	if s.pool != nil {
		out = s.pool.Get(n)
	} else {
		out = make([]byte, n)
	}
	copy(out, s.buf[s.start:s.start+n])
	s.start += n
	return out
}

// failed returns the pending non-EOF reader error, if any.
func (s *scanner) failed() error {
	if s.err != nil && !errors.Is(s.err, io.EOF) {
		return s.err
	}
	return nil
}

// nextPow2 rounds v up to the next power of two.
func nextPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}
