package restorecache

import (
	"context"
	"testing"
	"time"

	"hidestore/internal/container"
	"hidestore/internal/obs"
)

// TestPrefetchDrainsSkippedPlanned: when the policy skips a planned
// container (all its chunks satisfied from cache) and requests a later
// one, the skipped item must not strand in the stash with its window
// occupancy held until Close. Regression test: before the drain, Get(3)
// after Get(1) left container 2's item in stash and the occupancy gauge
// at 1 for the rest of the restore.
func TestPrefetchDrainsSkippedPlanned(t *testing.T) {
	store, entries, _ := fixture(t, 3, 4, 256)
	reg := obs.NewRegistry()
	mx := obs.NewRestoreMetrics(reg)
	p := NewPrefetchFetcher(StoreFetcher(store), entries, 8)
	p.Observe(mx)
	defer p.Close()

	ctx := context.Background()
	if _, err := p.Get(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// Skip container 2 entirely: request 3 next, as a chunk cache that
	// already holds all of 2's chunks would.
	if _, err := p.Get(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if n := len(p.stash); n != 0 {
		t.Fatalf("stash holds %d stranded item(s) after skipping a planned container", n)
	}
	// The dispatcher counts an item into the window just after queueing
	// it, so a Get can hand the item over (and count it out) first: the
	// balance is only guaranteed once the dispatcher has caught up.
	eventually(t, "outstanding and the occupancy gauge return to 0 before Close", func() bool {
		return p.outstanding.Load() == 0 && mx.PrefetchOccupancy.Value() == 0
	})
	// A late request for the skipped container is no longer planned:
	// it reads through directly instead of scanning the drained queue.
	if _, err := p.Get(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if p.planned[container.ID(2)] {
		t.Fatal("skipped container still marked planned after drain")
	}
	// Nobody awaited the worker's read of the skipped container; it may
	// still be in flight.
	eventually(t, "store reads reach 4 (3 planned + 1 read-through)", func() bool {
		return store.Reads() >= 4
	})
	p.Close()
	if reads := store.Reads(); reads != 4 {
		t.Fatalf("store reads = %d, want 4 (3 planned + 1 read-through)", reads)
	}
	if v := mx.PrefetchOccupancy.Value(); v != 0 {
		t.Fatalf("occupancy gauge = %d after Close, want 0", v)
	}
}

// eventually polls cond until it holds, failing the test after 5 s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestPrefetchCloseZeroesGaugeAfterSkip: even when the drain is never
// triggered (the restore aborts right after the skip), Close returns all
// outstanding occupancy so the gauge reads 0 between restores.
func TestPrefetchCloseZeroesGaugeAfterSkip(t *testing.T) {
	store, entries, _ := fixture(t, 4, 4, 256)
	reg := obs.NewRegistry()
	mx := obs.NewRestoreMetrics(reg)
	p := NewPrefetchFetcher(StoreFetcher(store), entries, 8)
	p.Observe(mx)
	if _, err := p.Get(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if v := mx.PrefetchOccupancy.Value(); v != 0 {
		t.Fatalf("occupancy gauge = %d after Close, want 0", v)
	}
	if n := len(p.stash); n != 0 {
		t.Fatalf("stash holds %d item(s) after Close", n)
	}
}
