package restorecache

import (
	"bytes"
	"context"
	"math/rand"
	"strconv"
	"testing"

	"hidestore/internal/container"
	"hidestore/internal/container/containertest"
	"hidestore/internal/fp"
	"hidestore/internal/recipe"
)

// fixture builds a MemStore with nContainers containers of chunksPer
// chunks each (chunkSize bytes) and returns the store, behind a read
// counter, plus per-chunk
// entries in storage order and the original payloads by fingerprint.
func fixture(t *testing.T, nContainers, chunksPer, chunkSize int) (*containertest.CountingStore, []recipe.Entry, map[fp.FP][]byte) {
	t.Helper()
	store := containertest.Counting(container.NewMemStore())
	rng := rand.New(rand.NewSource(7))
	var entries []recipe.Entry
	payloads := make(map[fp.FP][]byte)
	for cid := 1; cid <= nContainers; cid++ {
		ctn := container.NewWithCapacity(container.ID(cid), container.DefaultCapacity)
		for j := 0; j < chunksPer; j++ {
			data := make([]byte, chunkSize)
			rng.Read(data)
			f := fp.Of(data)
			if err := ctn.Add(f, data); err != nil {
				t.Fatal(err)
			}
			payloads[f] = data
			entries = append(entries, recipe.Entry{FP: f, Size: uint32(chunkSize), CID: int32(cid)})
		}
		if err := store.Put(ctn); err != nil {
			t.Fatal(err)
		}
	}
	return store, entries, payloads
}

func allCaches() []Cache {
	return []Cache{
		NewContainerLRU(8),
		NewChunkLRU(1 << 20),
		NewFAA(256 << 10),
		NewALACC(Options{AreaBytes: 256 << 10, CacheBytes: 512 << 10, LookAheadBytes: 512 << 10}),
		NewOPT(8),
	}
}

func expected(entries []recipe.Entry, payloads map[fp.FP][]byte) []byte {
	var out []byte
	for _, e := range entries {
		out = append(out, payloads[e.FP]...)
	}
	return out
}

func TestNewFactory(t *testing.T) {
	for _, name := range []string{"container-lru", "chunk-lru", "faa", "alacc", "opt"} {
		c, err := New(name)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if c.Name() != name {
			t.Fatalf("Name = %q, want %q", c.Name(), name)
		}
	}
	if c, err := New(""); err != nil || c.Name() != "container-lru" {
		t.Fatal("empty name should default to container-lru")
	}
	if _, err := New("nope"); err == nil {
		t.Fatal("unknown scheme should fail")
	}
}

// TestRoundTripSequential restores a stream laid out in storage order:
// every scheme must reproduce the exact bytes with one read per container.
func TestRoundTripSequential(t *testing.T) {
	store, entries, payloads := fixture(t, 10, 20, 1024)
	want := expected(entries, payloads)
	for _, c := range allCaches() {
		t.Run(c.Name(), func(t *testing.T) {
			var buf bytes.Buffer
			stats, err := c.Restore(context.Background(), entries, StoreFetcher(store), &buf)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatal("restored bytes differ from original")
			}
			if stats.ContainerReads != 10 {
				t.Fatalf("ContainerReads = %d, want 10 (perfect locality)", stats.ContainerReads)
			}
			if stats.BytesRestored != uint64(len(want)) {
				t.Fatalf("BytesRestored = %d, want %d", stats.BytesRestored, len(want))
			}
			if stats.Chunks != uint64(len(entries)) {
				t.Fatalf("Chunks = %d, want %d", stats.Chunks, len(entries))
			}
		})
	}
}

// TestRoundTripShuffled restores a randomly permuted reference order:
// correctness must hold regardless of locality.
func TestRoundTripShuffled(t *testing.T) {
	store, entries, payloads := fixture(t, 6, 15, 512)
	rng := rand.New(rand.NewSource(3))
	shuffled := append([]recipe.Entry(nil), entries...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	want := expected(shuffled, payloads)
	for _, c := range allCaches() {
		t.Run(c.Name(), func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := c.Restore(context.Background(), shuffled, StoreFetcher(store), &buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatal("restored bytes differ from original")
			}
		})
	}
}

// TestRepeatedChunks restores a recipe that references the same chunk
// multiple times (dedup within a version).
func TestRepeatedChunks(t *testing.T) {
	store, entries, payloads := fixture(t, 2, 5, 256)
	repeated := append(append([]recipe.Entry(nil), entries...), entries[0], entries[3], entries[0])
	want := expected(repeated, payloads)
	for _, c := range allCaches() {
		t.Run(c.Name(), func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := c.Restore(context.Background(), repeated, StoreFetcher(store), &buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatal("restored bytes differ")
			}
		})
	}
}

// TestFragmentationThrashing interleaves two containers' chunks. A
// 1-container LRU thrashes (one read per chunk); FAA and OPT exploit the
// area/future knowledge and read each container far fewer times.
func TestFragmentationThrashing(t *testing.T) {
	store, entries, _ := fixture(t, 2, 50, 1024)
	// Interleave: c1[0], c2[0], c1[1], c2[1], ...
	inter := make([]recipe.Entry, 0, len(entries))
	for j := 0; j < 50; j++ {
		inter = append(inter, entries[j], entries[50+j])
	}
	lru1 := NewContainerLRU(1)
	var buf bytes.Buffer
	lruStats, err := lru1.Restore(context.Background(), inter, StoreFetcher(store), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if lruStats.ContainerReads != 100 {
		t.Fatalf("1-container LRU reads = %d, want 100 (thrash)", lruStats.ContainerReads)
	}
	faa := NewFAA(1 << 20) // area covers the whole stream
	buf.Reset()
	faaStats, err := faa.Restore(context.Background(), inter, StoreFetcher(store), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if faaStats.ContainerReads != 2 {
		t.Fatalf("FAA reads = %d, want 2", faaStats.ContainerReads)
	}
	opt := NewOPT(2)
	buf.Reset()
	optStats, err := opt.Restore(context.Background(), inter, StoreFetcher(store), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if optStats.ContainerReads != 2 {
		t.Fatalf("OPT reads = %d, want 2", optStats.ContainerReads)
	}
	if faaStats.SpeedFactor() <= lruStats.SpeedFactor() {
		t.Fatal("FAA speed factor should beat a thrashing LRU")
	}
}

// TestOPTNeverWorseThanLRU compares reads on a random reference string at
// equal capacity.
func TestOPTNeverWorseThanLRU(t *testing.T) {
	store, entries, _ := fixture(t, 12, 10, 512)
	rng := rand.New(rand.NewSource(11))
	seq := make([]recipe.Entry, 400)
	for i := range seq {
		seq[i] = entries[rng.Intn(len(entries))]
	}
	var bufA, bufB bytes.Buffer
	lruStats, err := NewContainerLRU(4).Restore(context.Background(), seq, StoreFetcher(store), &bufA)
	if err != nil {
		t.Fatal(err)
	}
	optStats, err := NewOPT(4).Restore(context.Background(), seq, StoreFetcher(store), &bufB)
	if err != nil {
		t.Fatal(err)
	}
	if optStats.ContainerReads > lruStats.ContainerReads {
		t.Fatalf("OPT reads %d > LRU reads %d", optStats.ContainerReads, lruStats.ContainerReads)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("schemes restored different bytes")
	}
}

// TestALACCCacheBeatsFAAOnRevisits builds a reference pattern that leaves
// an area and comes back: the look-ahead chunk cache should save reads
// relative to plain FAA with the same area size.
func TestALACCCacheBeatsFAAOnRevisits(t *testing.T) {
	store, entries, _ := fixture(t, 8, 25, 1024)
	// Pattern: walk all containers once, then walk them again — the
	// second pass revisits chunks cached during the first.
	pattern := append(append([]recipe.Entry(nil), entries...), entries...)
	area := 32 << 10 // small area: FAA re-reads containers on the second pass
	var bufA, bufB bytes.Buffer
	faaStats, err := NewFAA(area).Restore(context.Background(), pattern, StoreFetcher(store), &bufA)
	if err != nil {
		t.Fatal(err)
	}
	alaccStats, err := NewALACC(Options{
		AreaBytes:      area,
		CacheBytes:     1 << 20,
		LookAheadBytes: 1 << 20,
	}).Restore(context.Background(), pattern, StoreFetcher(store), &bufB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("FAA and ALACC restored different bytes")
	}
	if alaccStats.ContainerReads >= faaStats.ContainerReads {
		t.Fatalf("ALACC reads %d, FAA reads %d: cache should help",
			alaccStats.ContainerReads, faaStats.ContainerReads)
	}
}

func TestUnresolvedEntriesRejected(t *testing.T) {
	store, entries, _ := fixture(t, 1, 2, 128)
	for _, cid := range []int32{0, -3} {
		bad := append([]recipe.Entry(nil), entries...)
		bad[1].CID = cid
		for _, c := range allCaches() {
			var buf bytes.Buffer
			if _, err := c.Restore(context.Background(), bad, StoreFetcher(store), &buf); err == nil {
				t.Fatalf("%s accepted CID %d", c.Name(), cid)
			}
		}
	}
}

func TestMissingContainerError(t *testing.T) {
	store, entries, _ := fixture(t, 1, 2, 128)
	bad := append([]recipe.Entry(nil), entries...)
	bad[0].CID = 42 // no such container
	for _, c := range allCaches() {
		var buf bytes.Buffer
		if _, err := c.Restore(context.Background(), bad, StoreFetcher(store), &buf); err == nil {
			t.Fatalf("%s ignored a missing container", c.Name())
		}
	}
}

func TestSpeedFactor(t *testing.T) {
	s := Stats{BytesRestored: 8 << 20, ContainerReads: 4}
	if got := s.SpeedFactor(); got != 2.0 {
		t.Fatalf("SpeedFactor = %v, want 2.0", got)
	}
	zero := Stats{BytesRestored: 3 << 20}
	if got := zero.SpeedFactor(); got != 3.0 {
		t.Fatalf("SpeedFactor with no reads = %v, want 3.0", got)
	}
}

func TestEmptyRestore(t *testing.T) {
	store, _, _ := fixture(t, 1, 1, 64)
	for _, c := range allCaches() {
		var buf bytes.Buffer
		stats, err := c.Restore(context.Background(), nil, StoreFetcher(store), &buf)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if stats.BytesRestored != 0 || buf.Len() != 0 {
			t.Fatalf("%s restored bytes from an empty recipe", c.Name())
		}
	}
}

// TestLargeChunkExceedsArea: a chunk larger than the assembly area must
// still restore (areas always admit at least one entry).
func TestLargeChunkExceedsArea(t *testing.T) {
	store := container.NewMemStore()
	ctn := container.NewWithCapacity(1, container.DefaultCapacity)
	big := bytes.Repeat([]byte("x"), 128<<10)
	f := fp.Of(big)
	if err := ctn.Add(f, big); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(ctn); err != nil {
		t.Fatal(err)
	}
	entries := []recipe.Entry{{FP: f, Size: uint32(len(big)), CID: 1}}
	for _, c := range []Cache{NewFAA(4 << 10), NewALACC(Options{AreaBytes: 4 << 10})} {
		var buf bytes.Buffer
		if _, err := c.Restore(context.Background(), entries, StoreFetcher(store), &buf); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if !bytes.Equal(buf.Bytes(), big) {
			t.Fatalf("%s corrupted the oversized chunk", c.Name())
		}
	}
}

func BenchmarkRestoreSchemes(b *testing.B) {
	store := container.NewMemStore()
	rng := rand.New(rand.NewSource(5))
	var entries []recipe.Entry
	for cid := 1; cid <= 32; cid++ {
		ctn := container.NewWithCapacity(container.ID(cid), container.DefaultCapacity)
		for j := 0; j < 64; j++ {
			data := make([]byte, 4096)
			rng.Read(data)
			f := fp.Of(data)
			if err := ctn.Add(f, data); err != nil {
				b.Fatal(err)
			}
			entries = append(entries, recipe.Entry{FP: f, Size: 4096, CID: int32(cid)})
		}
		if err := store.Put(ctn); err != nil {
			b.Fatal(err)
		}
	}
	rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	for _, c := range allCaches() {
		b.Run(c.Name(), func(b *testing.B) {
			var total int64
			for _, e := range entries {
				total += int64(e.Size)
			}
			b.SetBytes(total)
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				if _, err := c.Restore(context.Background(), entries, StoreFetcher(store), &buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestChunkLRUSmallCapacityStillCorrect(t *testing.T) {
	store, entries, payloads := fixture(t, 4, 10, 2048)
	want := expected(entries, payloads)
	c := NewChunkLRU(4096) // tiny: most inserts evict immediately
	var buf bytes.Buffer
	if _, err := c.Restore(context.Background(), entries, StoreFetcher(store), &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("restored bytes differ under tiny cache")
	}
	_ = strconv.Itoa(0)
}
