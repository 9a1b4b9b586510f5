package chunker

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"hidestore/internal/bufpool"
)

// poolTestData is a deterministic ~1 MB stream for the allocation and
// throughput measurements.
func poolTestData() []byte {
	rng := rand.New(rand.NewSource(99))
	b := make([]byte, 1<<20)
	rng.Read(b)
	return b
}

// drainPooled chunks data once through a pooled chunker, releasing
// every chunk, and returns the chunk count.
func drainPooled(tb testing.TB, alg Algorithm, data []byte, p Params, pool *bufpool.Pool) int {
	ch, err := NewPooled(alg, bytes.NewReader(data), p, pool)
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	for {
		chunk, err := ch.Next()
		if errors.Is(err, io.EOF) {
			return n
		}
		if err != nil {
			tb.Fatal(err)
		}
		n++
		pool.Release(chunk)
	}
}

// TestPooledNextAllocCeiling is the tentpole's allocation target: the
// per-chunk path (Next + Release) must average under 0.1 allocations
// per chunk in steady state — a >=10x reduction from the one
// allocation per chunk the pre-PR take() performed. The small budget
// covers per-run setup (chunker, scanner buffer, reader), which
// amortizes over the chunk count.
func TestPooledNextAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	data := poolTestData()
	p := DefaultParams()
	for _, alg := range diffAlgorithms {
		pool := bufpool.New(p.Max)
		chunks := drainPooled(t, alg, data, p, pool) // warm the pool's slabs
		if chunks == 0 {
			t.Fatalf("%v: no chunks", alg)
		}
		avg := testing.AllocsPerRun(5, func() {
			drainPooled(t, alg, data, p, pool)
		})
		perChunk := avg / float64(chunks)
		if perChunk > 0.1 {
			t.Errorf("%v: %.3f allocs/chunk (%.0f allocs for %d chunks), ceiling 0.1",
				alg, perChunk, avg, chunks)
		}
		if st := pool.Stats(); st.InUse != 0 {
			t.Errorf("%v: %d pooled buffers leaked", alg, st.InUse)
		}
	}
}

// BenchmarkChunkersPooled measures the production backup configuration
// of each chunker: pooled buffers, release after use. Compare against
// BenchmarkChunkers (the unpooled Split path) with -benchmem to see
// the allocation delta.
func BenchmarkChunkersPooled(b *testing.B) {
	data := poolTestData()
	p := DefaultParams()
	for _, alg := range diffAlgorithms {
		b.Run(alg.String(), func(b *testing.B) {
			pool := bufpool.New(p.Max)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				drainPooled(b, alg, data, p, pool)
			}
		})
	}
}

// BenchmarkScan measures the raw cut-point scan of each chunker at
// default params (window already buffered, no copy, no allocation):
// for rabin and tttd, the two-chain skip scan.
func BenchmarkScan(b *testing.B) {
	data := poolTestData()
	p := DefaultParams()
	run := func(name string, scan func(win []byte) int) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for pos := 0; pos < len(data); {
					end := pos + p.Max
					if end > len(data) {
						end = len(data)
					}
					win := data[pos:end]
					cut := len(win)
					if len(win) > p.Min {
						cut = scan(win)
					}
					pos += cut
				}
			}
		})
	}
	rb, _ := NewDecider(Rabin, p)
	run("rabin", func(win []byte) int { return rabinScan(_rabinTab, win, p.Min, rb.mask) })
	tt, _ := NewDecider(TTTD, p)
	run("tttd", func(win []byte) int {
		return tttdScan(_rabinTab, win, p.Min, tt.mainDiv, tt.backDiv, len(win) == p.Max)
	})
	fc, _ := NewDecider(FastCDC, p)
	run("fastcdc", func(win []byte) int { return fastcdcScan(win, p.Min, p.Avg, fc.maskS, fc.maskL) })
	ar, _ := NewDecider(AE, p)
	run("ae", func(win []byte) int { return aeScan(win, p.Min, ar.aeWindow) })
}
