package dedup

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"testing"

	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/obs"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
)

// TestBaselineSegmentSlabsBounded backs up 64 MiB through the baseline,
// whose 1024-chunk segments hold about five stream slabs' chunks before
// releasing any. The backup must complete (the producer waits on slabs in
// flight, never on slabs the segment holds), the slabs allocated must stay
// within the pipeline's in-flight cap plus the one being read plus what
// one segment spans, and backing the version up again must allocate no
// slab and a small fraction of the version's size.
func TestBaselineSegmentSlabsBounded(t *testing.T) {
	const size, workers, slab = 64 << 20, 4, 1 << 20
	data := make([]byte, size)
	rand.New(rand.NewSource(47)).Read(data)
	reg := obs.NewRegistry()
	e, err := New(Config{
		Index:        newIndex(t, "ddfs"),
		Store:        container.NewMemStore(),
		Recipes:      recipe.NewMemStore(),
		RestoreCache: restorecache.NewFAA(1 << 20),
		HashWorkers:  workers,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	// What one segment can hold: the most bytes any SegmentChunks
	// consecutive chunks of this stream cover, as slabs.
	d, err := chunker.NewDecider(chunker.TTTD, chunker.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var chunks []int
	for p := 0; p < len(data); p += chunks[len(chunks)-1] {
		chunks = append(chunks, d.Cut(data[p:min(p+d.Window(), len(data))]))
	}
	seg, widest, run := e.cfg.SegmentChunks, 0, 0
	for i, n := range chunks {
		run += n
		if i >= seg {
			run -= chunks[i-seg]
		}
		widest = max(widest, run)
	}
	held := widest/slab + 2
	bound := int64(2*workers+2) + 1 + int64(held)

	slabs := reg.Gauge("hidestore_bufpool_slabs", "")
	if _, err := e.Backup(context.Background(), bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	allocs := slabs.Value()
	if allocs > bound {
		t.Fatalf("%d slabs allocated for a %d MiB backup; in-flight cap + 1 + segment span = %d", allocs, size>>20, bound)
	}
	if out := reg.Gauge("hidestore_bufpool_in_use", "").Value(); out != 0 {
		t.Fatalf("%d slabs still out after the backup", out)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := e.Backup(context.Background(), bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grown := slabs.Value() - allocs; grown > 2 {
		t.Errorf("re-backing up the version allocated %d more slabs", grown)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > size/4 {
		t.Errorf("re-backing up %d MiB allocated %d bytes: something scales with the stream", size>>20, alloc)
	}
	t.Logf("%d chunks, segment spans ≤ %d slabs, %d slabs allocated (bound %d)", len(chunks), held, allocs, bound)
}
