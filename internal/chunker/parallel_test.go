package chunker

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"hidestore/internal/bufpool"
)

// The multi-lane chunker is gone: NewPooled is the one chunker path.
// These tests keep its seam matrix and pin what that path must
// guarantee when it runs concurrently: lanes chunkers chunk the same
// stream at once, sharing the package-level decision tables (and, where
// a pool is given, one buffer pool), each fed by a reader whose reads
// end at every lane seam (every ceil(n/lanes) bytes). Every lane must
// emit exactly the sequential Split's chunks, and the pool must end
// with nothing checked out.

// diffLanes are the lane counts the acceptance criteria pin.
var diffLanes = []int{2, 4, 8}

// _seamWindows is how many Max-size windows one lane segment of the
// seam corpus spans.
const _seamWindows = 4

// seamReader serves data in reads that never cross a multiple of seg,
// so the chunker's window refills land on the lane seams.
type seamReader struct {
	data     []byte
	off, seg int
}

func (r *seamReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	end := min((r.off/r.seg+1)*r.seg, len(r.data))
	n := copy(p, r.data[r.off:end])
	r.off += n
	return n, nil
}

// laneSeg is the seam spacing for lanes lanes over n bytes.
func laneSeg(n, lanes int) int {
	return max((n+lanes-1)/lanes, 1)
}

// laneCount is what one lane saw.
type laneCount struct {
	bytes, chunks int
}

// matchStream chunks r through NewPooled and reports the first
// divergence from want, releasing every chunk back to pool.
func matchStream(alg Algorithm, r io.Reader, p Params, pool *bufpool.Pool, want [][]byte) (laneCount, error) {
	var n laneCount
	ch, err := NewPooled(alg, r, p, pool)
	if err != nil {
		return n, err
	}
	for {
		chunk, err := ch.Next()
		if errors.Is(err, io.EOF) {
			if n.chunks != len(want) {
				return n, fmt.Errorf("%d chunks, sequential %d", n.chunks, len(want))
			}
			return n, nil
		}
		if err != nil {
			return n, err
		}
		same := n.chunks < len(want) && bytes.Equal(chunk, want[n.chunks])
		n.bytes += len(chunk)
		n.chunks++
		pool.Release(chunk)
		if !same {
			return n, fmt.Errorf("chunk %d diverges (len %d)", n.chunks-1, len(chunk))
		}
	}
}

// runLanes runs fn once per lane, each on its own goroutine, and
// returns the results by lane.
func runLanes(lanes int, fn func(lane int) (laneCount, error)) ([]laneCount, []error) {
	counts := make([]laneCount, lanes)
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for k := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[k], errs[k] = fn(k)
		}()
	}
	wg.Wait()
	return counts, errs
}

// mustSplit is the sequential reference every lane must reproduce.
func mustSplit(tb testing.TB, alg Algorithm, data []byte, p Params) [][]byte {
	tb.Helper()
	want, err := Split(alg, data, p)
	if err != nil {
		tb.Fatalf("%v %+v: Split: %v", alg, p, err)
	}
	return want
}

// assertParallelIdentical chunks data on lanes concurrent seam-read
// lanes drawing from pool (nil: plain allocation) and fails on the
// first divergence from want or on a leaked buffer.
func assertParallelIdentical(t *testing.T, alg Algorithm, data []byte, want [][]byte, p Params, lanes int, pool *bufpool.Pool) {
	t.Helper()
	seg := laneSeg(len(data), lanes)
	_, errs := runLanes(lanes, func(int) (laneCount, error) {
		return matchStream(alg, &seamReader{data: data, seg: seg}, p, pool, want)
	})
	for k, err := range errs {
		if err != nil {
			t.Fatalf("%v %+v lanes=%d: lane %d: %v", alg, p, lanes, k, err)
		}
	}
	if st := pool.Stats(); st.InUse != 0 {
		t.Fatalf("%v %+v lanes=%d: %d pooled buffers leaked", alg, p, lanes, st.InUse)
	}
}

// TestParallelMatchesSequential is the concurrency pin: for every
// algorithm, boundary-stressing parameter set, corpus shape, and lane
// count, every concurrent lane's chunk sequence must be bit-identical
// to the sequential chunker's. Its lanes allocate plainly: at the 1–4
// byte chunks of the smallest parameter sets the shared pool's
// per-chunk lock would be the whole cost of the matrix; the seam and
// pooled tests below share a pool.
func TestParallelMatchesSequential(t *testing.T) {
	corpus := diffCorpus()
	for _, alg := range diffAlgorithms {
		for _, p := range diffParams() {
			for name, data := range corpus {
				want := mustSplit(t, alg, data, p)
				for _, lanes := range diffLanes {
					t.Run(fmt.Sprintf("%v/%d-%d-%d/%s/l%d", alg, p.Min, p.Avg, p.Max, name, lanes), func(t *testing.T) {
						assertParallelIdentical(t, alg, data, want, p, lanes, nil)
					})
				}
			}
		}
	}
}

// seamCorpus builds inputs adversarial to the seam reads for a given
// geometry: cut points exactly at, one byte before, and straddling a
// seam, plus min- and max-size chunks at the seam. The seam spacing
// for an input of n bytes is ceil(n/lanes), so the shapes below
// position their content runs relative to that.
func seamCorpus(p Params, lanes int) map[string][]byte {
	rng := rand.New(rand.NewSource(1337))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	seg := _seamWindows * p.Max
	out := map[string][]byte{
		// Zeros produce forced max-size cuts on the Max grid; exactly
		// lanes segments put every seam on that grid: cut exactly at
		// the seam.
		"cut-at-seam": make([]byte, lanes*seg),
		// One byte short per lane: every seam lands one byte before a
		// forced cut, so a chunk straddles each seam.
		"cut-just-before-seam": make([]byte, lanes*seg-lanes),
		// A random prefix shifts the zero run's forced-cut grid by an
		// arbitrary offset: cuts straddle every seam.
		"cut-straddling-seam": append(random(p.Max/3+7), make([]byte, (lanes-1)*seg)...),
		// Random data right at the seam makes content-defined (often
		// min-adjacent) cuts there instead of forced max-size ones.
		"random-at-seam": append(append(make([]byte, seg-p.Min), random(2*p.Max)...), make([]byte, (lanes-1)*seg)...),
		// A long random run with a misaligned tail: seams fall at
		// arbitrary offsets inside content-defined chunks.
		"multi-batch-straddle": append(random(2*lanes*seg+p.Max/2), make([]byte, seg)...),
	}
	return out
}

// TestParallelSeamAdversarial exercises the seam edge cases the fuzz
// corpus seeds pin: seam-aligned, seam-adjacent, and seam-straddling
// cut points for every algorithm and lane count.
func TestParallelSeamAdversarial(t *testing.T) {
	for _, p := range []Params{DefaultParams(), {Min: 48, Avg: 64, Max: 129}} {
		for _, lanes := range diffLanes {
			for name, data := range seamCorpus(p, lanes) {
				for _, alg := range diffAlgorithms {
					want := mustSplit(t, alg, data, p)
					t.Run(fmt.Sprintf("%v/%d-%d-%d/%s/l%d", alg, p.Min, p.Avg, p.Max, name, lanes), func(t *testing.T) {
						assertParallelIdentical(t, alg, data, want, p, lanes, bufpool.New(p.Max))
					})
				}
			}
		}
	}
}

// TestParallelPooled pins that a pool shared by concurrent lanes hands
// every lane the sequential chunks and ends with no buffer leaked.
func TestParallelPooled(t *testing.T) {
	data := diffCorpus()["rand-1M"]
	p := DefaultParams()
	pool := bufpool.New(p.Max)
	for _, alg := range diffAlgorithms {
		assertParallelIdentical(t, alg, data, mustSplit(t, alg, data, p), p, 4, pool)
	}
}

// TestParallelLaneStats checks per-lane accounting on a large stream:
// every lane sees the whole stream and the sequential chunk count, and
// the shared pool's stats are safe to snapshot while the lanes run
// (the race tier makes that guarantee meaningful).
func TestParallelLaneStats(t *testing.T) {
	data := diffCorpus()["rand-1M"]
	p := DefaultParams()
	want := mustSplit(t, FastCDC, data, p)
	pool := bufpool.New(p.Max)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				pool.Stats()
			}
		}
	}()
	counts, errs := runLanes(4, func(int) (laneCount, error) {
		return matchStream(FastCDC, bytes.NewReader(data), p, pool, want)
	})
	close(done)
	wg.Wait()
	for k, n := range counts {
		if errs[k] != nil {
			t.Fatalf("lane %d: %v", k, errs[k])
		}
		if n.bytes != len(data) || n.chunks != len(want) {
			t.Errorf("lane %d: %d bytes in %d chunks, want %d in %d", k, n.bytes, n.chunks, len(data), len(want))
		}
	}
	if st := pool.Stats(); st.InUse != 0 || st.Gets != uint64(4*len(want)) {
		t.Errorf("pool after 4 lanes: %+v, want %d gets and nothing in use", st, 4*len(want))
	}
}

// TestParallelDegenerate covers one lane, more lanes than bytes, and
// the constructor's error paths.
func TestParallelDegenerate(t *testing.T) {
	p := DefaultParams()
	pool := bufpool.New(p.Max)
	abc := []byte("abc")
	assertParallelIdentical(t, Rabin, abc, mustSplit(t, Rabin, abc, p), p, 1, pool)
	assertParallelIdentical(t, Rabin, abc, mustSplit(t, Rabin, abc, p), p, 8, pool)
	assertParallelIdentical(t, Rabin, nil, nil, p, 4, pool)
	if _, err := NewPooled(Algorithm(99), bytes.NewReader(nil), DefaultParams(), pool); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := NewPooled(Rabin, bytes.NewReader(nil), Params{Min: -1, Avg: 4, Max: 8}, pool); err == nil {
		t.Error("invalid params accepted")
	}
}

// failReader yields n bytes, then a non-EOF error.
type failReader struct {
	rest []byte
	err  error
}

func (r *failReader) Read(p []byte) (int, error) {
	if len(r.rest) == 0 {
		return 0, r.err
	}
	n := copy(p, r.rest)
	r.rest = r.rest[n:]
	return n, nil
}

// TestParallelReaderError pins that a reader failure surfaces as-is on
// every concurrent lane.
func TestParallelReaderError(t *testing.T) {
	boom := errors.New("boom")
	pool := bufpool.New(DefaultParams().Max)
	_, errs := runLanes(4, func(int) (laneCount, error) {
		ch, err := NewPooled(FastCDC, &failReader{rest: make([]byte, 1000), err: boom}, DefaultParams(), pool)
		if err != nil {
			return laneCount{}, err
		}
		for {
			chunk, err := ch.Next()
			if err != nil {
				return laneCount{}, err
			}
			pool.Release(chunk)
		}
	})
	for k, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("lane %d: got %v, want the reader's error", k, err)
		}
	}
}

// FuzzParallelDifferential lets the fuzzer hunt for inputs where a
// concurrent seam-read lane diverges from the sequential chunker. The
// committed corpus under testdata/fuzz seeds the seam adversarial
// shapes (cut exactly at / just before / straddling a seam) so plain
// `go test` exercises them without -fuzz.
func FuzzParallelDifferential(f *testing.F) {
	f.Add([]byte("hello world, hello world, hello world"), uint16(4), uint16(4), uint16(6), uint8(2))
	f.Add(make([]byte, 8192), uint16(48), uint16(16), uint16(64), uint8(3))
	p := Params{Min: 48, Avg: 64, Max: 129}
	for _, lanes := range diffLanes {
		for _, data := range seamCorpus(p, lanes) {
			// Raw values invert the parameter derivation below
			// (Min = 1 + raw%2048, lanes = 2 + raw%7).
			f.Add(data, uint16(p.Min-1), uint16(p.Avg-p.Min), uint16(p.Max-p.Avg), uint8(lanes-2))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, minRaw, avgSpread, maxSpread uint16, laneRaw uint8) {
		p := Params{
			Min: 1 + int(minRaw)%2048,
		}
		p.Avg = p.Min + int(avgSpread)%2048
		p.Max = p.Avg + int(maxSpread)%4096
		if p.Validate() != nil {
			t.Skip()
		}
		lanes := 2 + int(laneRaw)%7
		if len(data) > 1<<20 {
			data = data[:1<<20]
		}
		pool := bufpool.New(p.Max)
		for _, alg := range diffAlgorithms {
			assertParallelIdentical(t, alg, data, mustSplit(t, alg, data, p), p, lanes, pool)
		}
	})
}
