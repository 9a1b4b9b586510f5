package fp

import (
	"crypto/sha1"
	"math/rand"
	"testing"
)

// checkAgainstSHA1 compares Of with crypto/sha1 on every length 0..1024 at
// every start alignment 0..63, then on random slices of up to 16 KiB.
func checkAgainstSHA1(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 16<<10+64)
	rng.Read(buf)
	for off := 0; off < 64; off++ {
		for n := 0; n <= 1024; n++ {
			b := buf[off : off+n]
			if got, want := Of(b), FP(sha1.Sum(b)); got != want {
				t.Fatalf("offset %d, length %d: Of = %s, crypto/sha1 = %s", off, n, got, want)
			}
		}
	}
	for i := 0; i < 2000; i++ {
		n := rng.Intn(16<<10 + 1)
		off := rng.Intn(len(buf) - n + 1)
		b := buf[off : off+n]
		if got, want := Of(b), FP(sha1.Sum(b)); got != want {
			t.Fatalf("random slice [%d:%d]: Of = %s, crypto/sha1 = %s", off, off+n, got, want)
		}
	}
}

// TestOfBitIdenticalToSHA1 runs the differential check on whichever block
// function this CPU dispatches to.
func TestOfBitIdenticalToSHA1(t *testing.T) {
	t.Logf("SHA-NI kernel in use: %v", useSHANI)
	checkAgainstSHA1(t)
}

// TestOfStdlibFallback runs the same check with Of forced onto
// crypto/sha1, the path every CPU without SHA-NI and every other
// architecture takes.
func TestOfStdlibFallback(t *testing.T) {
	withStdlibSHA1(t)
	if useSHANI {
		t.Fatal("the hook did not switch the kernel off")
	}
	checkAgainstSHA1(t)
}

// FuzzOfMatchesSHA1: Of and crypto/sha1 agree on arbitrary input.
func FuzzOfMatchesSHA1(f *testing.F) {
	for _, n := range []int{0, 1, 55, 56, 63, 64, 65, 119, 120, 128, 4096} {
		f.Add(make([]byte, n))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := Of(data), FP(sha1.Sum(data)); got != want {
			t.Fatalf("length %d: Of = %s, crypto/sha1 = %s", len(data), got, want)
		}
	})
}

// BenchmarkOf hashes one 4 KiB chunk (the default average) per op, on the
// dispatched kernel and on crypto/sha1.
func BenchmarkOf(b *testing.B) {
	data := make([]byte, 4<<10)
	rand.New(rand.NewSource(2)).Read(data)
	run := func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			Of(data)
		}
	}
	b.Run("dispatch", run)
	b.Run("stdlib", func(b *testing.B) {
		withStdlibSHA1(b)
		run(b)
	})
}
