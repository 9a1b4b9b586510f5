package backup_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"hidestore/internal/backend"
	"hidestore/internal/backup"
	"hidestore/internal/container"
	"hidestore/internal/fp"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
)

// The store cache's bound and replacement rule, as the restore path sees
// them (DESIGN.md, "Store cache"): decoded recipes and images share one
// byte budget, least recently used out. Each test probes what the cache
// holds by the reads that reach the backend below it.

// sized is a recipe of version with n entries.
func sized(version, n int) *recipe.Recipe {
	r := recipe.New(version)
	for i := 0; i < n; i++ {
		r.Append(fp.FP{byte(i), byte(i >> 8), byte(i >> 16)}, 4096, 1)
	}
	return r
}

// TestKeptRecipesBoundedByBytes: recipes count against the cache's budget
// by their decoded entries, and the least recently used goes while the
// cache is over it; a recipe larger than the whole budget is not cached,
// and a version's new recipe replaces its old one's cost.
func TestKeptRecipesBoundedByBytes(t *testing.T) {
	const quarter = 100 // four fit the budget, five do not
	entry := int64(unsafe.Sizeof(recipe.Entry{}))
	log := &readLog{}
	store := backend.NewRecipeStore(log.wrap(backend.NewMem())).Cached(backend.NewCache(4 * quarter * entry))
	put := func(v, n int) {
		t.Helper()
		if err := store.Put(sized(v, n)); err != nil {
			t.Fatal(err)
		}
	}
	// probe reads versions in order and returns the ones the backend
	// served: the ones not cached at that point.
	probe := func(vs ...int) []string {
		t.Helper()
		log.take()
		for _, v := range vs {
			if _, err := store.Get(v); err != nil {
				t.Fatal(err)
			}
		}
		return log.take()
	}
	for v := 1; v <= 6; v++ {
		put(v, quarter)
	}
	// Cached, most recently used first: 6 5 4 3. Reading 3 promotes it;
	// reading 1 fills it and pushes out 4.
	if got := probe(3, 1); !slices.Equal(got, []string{"r_1.rcp"}) {
		t.Fatalf("after v1…v6: reads %v, want v1 alone (v3 cached)", got)
	}
	put(7, quarter) // pushes out 5: 7 1 3 6
	if got := probe(6, 3, 1, 7); len(got) != 0 {
		t.Fatalf("after v7: reads %v, want none", got)
	}
	if got := probe(5); !slices.Equal(got, []string{"r_5.rcp"}) {
		t.Fatalf("after v7: reads %v, want v5", got)
	}
	// 5 7 1 3. Eight fits only with two quarters gone, nine only alone.
	put(8, 2*quarter+1)
	put(9, 3*quarter)
	if got := probe(9, 8, 5); !slices.Equal(got, []string{"r_8.rcp", "r_5.rcp"}) {
		t.Fatalf("after v8, v9: reads %v, want v8 and v5 (v9 cached alone)", got)
	}
	put(10, 4*quarter+1) // larger than the budget: never cached
	if got := probe(10); !slices.Equal(got, []string{"r_10.rcp"}) {
		t.Fatalf("v10 over the budget: reads %v, want v10", got)
	}
	// 5 8. Replacing v9 by a one-entry recipe recounts its cost: it stays
	// cached beside three more quarters.
	put(9, 1)
	for v := 11; v <= 13; v++ {
		put(v, quarter)
	}
	if got := probe(11, 12, 13, 9); len(got) != 0 {
		t.Fatalf("after replacing v9: reads %v, want none", got)
	}
}

// imageOf is a one-byte image of id holding chunk f.
func imageOf(t *testing.T, id container.ID) (*container.Container, fp.FP) {
	t.Helper()
	c := container.New(id)
	f := fp.FP{byte(id), byte(id >> 8)}
	if err := c.Add(f, []byte{byte(id)}); err != nil {
		t.Fatal(err)
	}
	return c, f
}

// TestKeepWrittenDropsLowestID: images a store writes join its cache in
// order, and once the budget is full each that joins pushes out the one
// written or read least recently — with nothing read in between, the
// lowest ID. Delete drops a name.
func TestKeepWrittenDropsLowestID(t *testing.T) {
	log := &readLog{}
	store := backend.NewContainerStore(log.wrap(backend.NewMem()), "", false).Cached(backend.NewCache(8))
	for id := container.ID(1); id <= 20; id++ {
		c, _ := imageOf(t, id)
		if err := store.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	for id := container.ID(20); id >= 1; id-- { // hits first: a miss fills
		if _, err := store.Get(id); err != nil {
			t.Fatal(err)
		}
		if read := len(log.take()) > 0; read != (id <= 12) {
			t.Errorf("image %d read from the backend %t, want %t", id, read, id <= 12)
		}
	}
	if err := store.Delete(20); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get(20); !errors.Is(err, container.ErrNotFound) {
		t.Fatalf("image 20 after Delete: %v, want not found", err)
	}
}

// TestRestoreReplacesUnnamedKeptImages: a plain restore reads the images
// its plan names through the cache — the cached ones from memory — and
// its store reads push out the cached images least recently used, so the
// cache stays at its bound holding what the restore read.
func TestRestoreReplacesUnnamedKeptImages(t *testing.T) {
	log := &readLog{}
	store := backend.NewContainerStore(log.wrap(backend.NewMem()), "", false).Cached(backend.NewCache(8))
	rec := recipe.New(1)
	for id := container.ID(1); id <= 18; id++ {
		c, f := imageOf(t, id)
		if err := store.Put(c); err != nil { // 11 … 18 stay cached
			t.Fatal(err)
		}
		if id <= 5 || id == 18 {
			rec.Append(f, 1, int32(id))
		}
	}
	recipes := recipe.NewMemStore()
	if err := recipes.Put(rec); err != nil {
		t.Fatal(err)
	}
	d := backup.RestoreDriver{Recipes: recipes, Store: store, Cache: restorecache.NewFAA(1 << 20), PrefetchDepth: -1}
	var buf bytes.Buffer
	rep, err := d.Restore(context.Background(), 1, &buf, false, nil)
	reads := log.take()
	if err != nil || rep.Stats.ContainerReads != 6 || len(reads) != 5 || slices.Contains(reads, backend.ContainerName(18)) {
		t.Fatalf("restore: %v, %d container reads, backend reads %v; want 6, and 1 … 5 from the backend (18 cached)",
			err, rep.Stats.ContainerReads, reads)
	}
	want := []container.ID{1, 2, 3, 4, 5, 16, 17, 18}
	for _, id := range want {
		if _, err := store.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := log.take(); len(got) != 0 {
		t.Fatalf("reads of %v after the restore reached the backend: %v", want, got)
	}
	for id := container.ID(11); id <= 15; id++ {
		if _, err := store.Get(id); err != nil {
			t.Fatal(err)
		}
		if got := log.take(); !slices.Equal(got, []string{backend.ContainerName(id)}) {
			t.Errorf("image %d after the restore: backend reads %v, want it pushed out (%s)", id, got, fmt.Sprint(want))
		}
	}
}
