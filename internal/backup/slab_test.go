package backup

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/fp"
)

// smallSlab is the test-only slab size: a few chunks per slab, so a
// stream of a few hundred KB crosses hundreds of slab boundaries. It is
// no multiple of any window or chunk size below.
const smallSlab = 3001

var allAlgorithms = []chunker.Algorithm{chunker.Fixed, chunker.Rabin, chunker.TTTD, chunker.FastCDC, chunker.AE}

// slabParams are small chunk bounds; the fixed-size chunks (Avg) divide
// neither smallSlab nor slabBytes.
var slabParams = chunker.Params{Min: 64, Avg: 300, Max: 1024}

func slabIngester(alg chunker.Algorithm, p chunker.Params, slabSize, workers int) *Ingester {
	g := NewIngester(IngestConfig{
		Chunker:     alg,
		ChunkParams: p,
		HashWorkers: workers,
		Store:       container.NewMemStore(),
	})
	g.slabSize = slabSize
	return g
}

// ingestChunks runs r through g and returns copies of the chunks the sink
// saw, in order, how many of them the sink cut itself, and Run's error. It
// fails t if a chunk arrives with a wrong fingerprint or a slab is not
// returned after a clean run.
func ingestChunks(ctx context.Context, t *testing.T, g *Ingester, r io.Reader) ([][]byte, int, error) {
	t.Helper()
	in, err := g.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	retErr := in.Run(ctx, r, nil, func(c Chunk) error {
		if c.FP != fp.Of(c.Data) {
			t.Errorf("chunk %d arrived with a wrong fingerprint", len(got))
		}
		got = append(got, append([]byte(nil), c.Data...))
		c.Release()
		return nil
	})
	runErr := retErr
	in.End(&retErr)
	if runErr == nil {
		if st := g.slabs.stats(); st.InUse != 0 {
			t.Errorf("%d slabs still out after a clean run", st.InUse)
		}
	}
	return got, in.recut, runErr
}

// sameChunks reports the first difference between two chunk sequences.
func sameChunks(got, want [][]byte) error {
	for i := 0; i < len(got) && i < len(want); i++ {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("chunk %d: %d bytes, sequential chunker cut %d", i, len(got[i]), len(want[i]))
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d chunks, sequential chunker cut %d", len(got), len(want))
	}
	return nil
}

// windowOf is the decision window of alg under p.
func windowOf(t *testing.T, alg chunker.Algorithm, p chunker.Params) int {
	d, err := chunker.NewDecider(alg, p)
	if err != nil {
		t.Fatal(err)
	}
	return d.Window()
}

// slabCorpus is every stream shape the slab chunking must cut exactly as
// the sequential chunker does.
func slabCorpus(w, slab int) map[string][]byte {
	rng := rand.New(rand.NewSource(29))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	period7 := make([]byte, 150_000)
	for i := range period7 {
		period7[i] = "hidestr"[i%7]
	}
	// Random runs separated by zero runs longer than Max: chunks cut only
	// at Max inside the runs, content-defined outside.
	mixed := random(200_000)
	for off := 10_000; off+3*w < len(mixed); off += 37_000 {
		clear(mixed[off : off+3*w])
	}
	c := map[string][]byte{
		"random":  random(400_000),
		"zeros":   make([]byte, 150_000),
		"period7": period7,
		"mixed":   mixed,
	}
	for _, n := range []int{0, 1, w - 1, w, slab - 1, slab, slab + 1, slab + w - 1, slab + w, slab + w + 1, 2*slab + w} {
		c[fmt.Sprintf("len%d", n)] = random(n)
	}
	return c
}

// TestSlabChunksMatchSequential pins the tentpole's correctness claim:
// for every algorithm and stream shape — chunks straddling slab
// boundaries, streams ending on every side of one, fixed-size chunks that
// never line up with the slab grid, inputs cut only at Max that never
// resync — the slab pipeline hands the sink exactly chunker.Split's
// chunks, at one worker and at four.
func TestSlabChunksMatchSequential(t *testing.T) {
	for _, alg := range allAlgorithms {
		w := windowOf(t, alg, slabParams)
		for name, data := range slabCorpus(w, smallSlab) {
			want, err := chunker.Split(alg, data, slabParams)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				g := slabIngester(alg, slabParams, smallSlab, workers)
				got, _, err := ingestChunks(context.Background(), t, g, iotest.HalfReader(bytes.NewReader(data)))
				if err != nil {
					t.Fatalf("%v %s workers=%d: %v", alg, name, workers, err)
				}
				if err := sameChunks(got, want); err != nil {
					t.Fatalf("%v %s workers=%d: %v", alg, name, workers, err)
				}
			}
		}
	}
}

// TestSlabBoundariesCrossed guards the test above against going
// degenerate: on random data the small slab puts hundreds of boundaries
// under the stream, and many chunks straddle one.
func TestSlabBoundariesCrossed(t *testing.T) {
	data := slabCorpus(slabParams.Max, smallSlab)["random"]
	chunks, err := chunker.Split(chunker.TTTD, data, slabParams)
	if err != nil {
		t.Fatal(err)
	}
	straddling, off := 0, 0
	for _, c := range chunks {
		if off/smallSlab != (off+len(c)-1)/smallSlab {
			straddling++
		}
		off += len(c)
	}
	if boundaries := len(data) / smallSlab; boundaries < 100 || straddling < boundaries/2 {
		t.Fatalf("%d slab boundaries, %d straddling chunks: the corpus no longer exercises the seams", boundaries, straddling)
	}
}

// TestSlabDefaultSize runs the production slab size over a stream of a
// few slabs with the default chunk parameters, fixed-size chunks
// included (4 KiB divides 1 MiB, so those resync at every slab).
func TestSlabDefaultSize(t *testing.T) {
	p := chunker.DefaultParams()
	data := make([]byte, 3*slabBytes+12345)
	rand.New(rand.NewSource(31)).Read(data)
	for _, alg := range allAlgorithms {
		want, err := chunker.Split(alg, data, p)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ingestChunks(context.Background(), t, slabIngester(alg, p, slabBytes, 4), bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if err := sameChunks(got, want); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
}

// sequentialUntilError is what the sequential chunker emits from r: its
// chunks up to the reader's failure, and the failure.
func sequentialUntilError(t *testing.T, alg chunker.Algorithm, p chunker.Params, r io.Reader) ([][]byte, error) {
	ch, err := chunker.New(alg, r, p)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for {
		c, err := ch.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, c)
	}
}

// TestSlabReaderErrorInStreamOrder: a reader that fails at an offset on
// either side of a slab boundary — or of the window copied across it —
// must leave the sink with exactly the chunks the sequential chunker
// emits before the failure, and then the failure.
func TestSlabReaderErrorInStreamOrder(t *testing.T) {
	boom := errors.New("source died")
	data := make([]byte, 10*smallSlab)
	rand.New(rand.NewSource(37)).Read(data)
	failing := func(at int) io.Reader {
		return io.MultiReader(bytes.NewReader(data[:at]), iotest.ErrReader(boom))
	}
	for _, alg := range allAlgorithms {
		w := windowOf(t, alg, slabParams)
		var offsets []int
		for _, k := range []int{1, 4} {
			for _, d := range []int{-w - 1, -w, -1, 0, 1, w - 1, w, w + 1} {
				offsets = append(offsets, k*smallSlab+d)
			}
		}
		offsets = append(offsets, 0, 1)
		for _, at := range offsets {
			want, wantErr := sequentialUntilError(t, alg, slabParams, failing(at))
			if !errors.Is(wantErr, boom) {
				t.Fatalf("sequential chunker: %v", wantErr)
			}
			got, _, err := ingestChunks(context.Background(), t, slabIngester(alg, slabParams, smallSlab, 4), failing(at))
			if !errors.Is(err, boom) {
				t.Fatalf("%v fail at %d: Run = %v, want the reader's error", alg, at, err)
			}
			if err := sameChunks(got, want); err != nil {
				t.Fatalf("%v fail at %d: %v", alg, at, err)
			}
		}
	}
}

// cancellingReader serves an endless random stream and cancels its
// context once it has served at bytes.
type cancellingReader struct {
	rng    *rand.Rand
	served int
	at     int
	cancel context.CancelFunc
}

func (r *cancellingReader) Read(p []byte) (int, error) {
	if len(p) > 4096 {
		p = p[:4096]
	}
	r.rng.Read(p)
	r.served += len(p)
	if r.served >= r.at {
		r.cancel()
	}
	return len(p), nil
}

// TestSlabCancelMidSlab: cancelling the context in the middle of a slab
// stops the backup promptly with the context's error, and every pipeline
// goroutine is gone when Run returns.
func TestSlabCancelMidSlab(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := NewIngester(IngestConfig{
		Chunker:     chunker.TTTD,
		ChunkParams: chunker.DefaultParams(),
		HashWorkers: 4,
		Store:       container.NewMemStore(),
	})
	r := &cancellingReader{rng: rand.New(rand.NewSource(41)), at: 5*slabBytes + slabBytes/2, cancel: cancel}
	start := time.Now()
	_, _, err := ingestChunks(ctx, t, g, r)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("cancelled backup took %v to return", d)
	}
	if r.served > 20*slabBytes {
		t.Fatalf("producer read %d bytes past a cancel at %d", r.served, r.at)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the backup, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSlabInFlightBound: however far the producer could read ahead, the
// slabs out of the pool stay within the pipeline's in-flight cap plus the
// one being filled plus what the sink holds — here, everything it was
// handed, until a 5-slab window is released at once, the way the
// baseline's segment holds chunks.
func TestSlabInFlightBound(t *testing.T) {
	const workers, held = 4, 5
	data := make([]byte, 40*smallSlab)
	rand.New(rand.NewSource(43)).Read(data)
	g := slabIngester(chunker.TTTD, slabParams, smallSlab, workers)
	in, err := g.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var pending []Chunk
	pendingBytes, peak := 0, int64(0)
	retErr := in.Run(context.Background(), bytes.NewReader(data), nil, func(c Chunk) error {
		pending = append(pending, c)
		pendingBytes += len(c.Data)
		if out := g.slabs.stats().InUse; out > peak {
			peak = out
		}
		if pendingBytes >= held*smallSlab {
			for _, p := range pending {
				p.Release()
			}
			pending, pendingBytes = pending[:0], 0
		}
		return nil
	})
	for _, p := range pending {
		p.Release()
	}
	in.End(&retErr)
	if retErr != nil {
		t.Fatal(retErr)
	}
	bound := int64(2*workers+2) + 1 + held + 2
	if peak > bound {
		t.Fatalf("%d slabs out at once, bound %d", peak, bound)
	}
	if st := g.slabs.stats(); st.SlabAllocs > uint64(bound) || st.InUse != 0 {
		t.Fatalf("%d slab allocations (bound %d), %d still out", st.SlabAllocs, bound, st.InUse)
	}
}

// TestSlabConstantRunNotRecut: inside a run of identical bytes longer
// than a slab every chunk has one length, and where the run began places
// them, so the true chain enters each slab off the speculative grid and
// never meets it — at the default parameters too, where Max divides the
// slab. The same holds for short repeating patterns, whether or not the
// period divides the chunk length. The sink must still cut exactly
// chunker.Split's chunks, and must take nearly all of them from known
// cuts with byte-equal decision windows instead of cutting and hashing
// the run on its own.
func TestSlabConstantRunNotRecut(t *testing.T) {
	p := chunker.DefaultParams()
	rng := rand.New(rand.NewSource(47))
	head, tail := make([]byte, 123_457), make([]byte, 50_001)
	rng.Read(head)
	rng.Read(tail)
	zeros := make([]byte, 6*slabBytes)
	words := make([]byte, 6*slabBytes)
	for i := range words {
		words[i] = "\xde\xad\xbe\xef\x01\x02\x03\x04"[i%8]
	}
	period7 := make([]byte, 6*slabBytes)
	for i := range period7 {
		period7[i] = "hidestr"[i%7]
	}
	for name, run := range map[string][]byte{"zeros": zeros, "period8": words, "period7": period7} {
		data := append(append(append([]byte(nil), head...), run...), tail...)
		slabs := len(data)/slabBytes + 1
		for _, alg := range allAlgorithms {
			want, err := chunker.Split(alg, data, p)
			if err != nil {
				t.Fatal(err)
			}
			got, recut, err := ingestChunks(context.Background(), t, slabIngester(alg, p, slabBytes, 4), bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if err := sameChunks(got, want); err != nil {
				t.Fatalf("%s %v: %v", name, alg, err)
			}
			if recut > 8*slabs {
				t.Errorf("%s %v: the sink cut %d of %d chunks itself over %d slabs", name, alg, recut, len(want), slabs)
			}
			t.Logf("%s %v: %d chunks, %d cut on the sink", name, alg, len(want), recut)
		}
	}
}
