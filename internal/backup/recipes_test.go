package backup

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"hidestore/internal/container"
	"hidestore/internal/fp"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
)

// sized is a recipe of version with n entries.
func sized(version, n int) *recipe.Recipe {
	r := recipe.New(version)
	for i := 0; i < n; i++ {
		r.Append(fp.FP{byte(i), byte(i >> 8), byte(i >> 16)}, 4096, 1)
	}
	return r
}

// versions lists the kept recipes' versions, most recently used first.
func (k *keptRecipes) versions() []int {
	var vs []int
	for _, r := range k.recs {
		vs = append(vs, r.Version)
	}
	return vs
}

// TestKeptRecipesBoundedByBytes: the kept recipe set drops the least
// recently used recipe while its entries exceed keptRecipeBytes, but never
// holds fewer than the two most recently used, however large.
func TestKeptRecipesBoundedByBytes(t *testing.T) {
	quarter := keptRecipeBytes / 4 / entrySize // four fit the budget, five do not
	var k keptRecipes
	for v := 1; v <= 6; v++ {
		k.keep(sized(v, quarter))
	}
	if got := k.versions(); !slices.Equal(got, []int{6, 5, 4, 3}) || k.bytes != 4*quarter*entrySize {
		t.Fatalf("kept %v, %d bytes; want [6 5 4 3], %d", got, k.bytes, 4*quarter*entrySize)
	}
	if k.get(3) == nil { // 3 is now the most recently used
		t.Fatal("v3 not kept")
	}
	k.keep(sized(7, quarter))
	if got := k.versions(); !slices.Equal(got, []int{7, 3, 6, 5}) {
		t.Fatalf("kept %v after v7, want [7 3 6 5]", got)
	}
	k.keep(sized(8, 2*quarter+1)) // over budget with any third recipe
	k.keep(sized(9, 3*quarter))
	if got := k.versions(); !slices.Equal(got, []int{9, 8}) || k.bytes <= keptRecipeBytes {
		t.Fatalf("kept %v, %d bytes; want the two most recently used past the budget", got, k.bytes)
	}
	k.drop(9)
	k.keep(sized(8, 1)) // replacing a version's copy recounts its bytes
	if got := k.versions(); !slices.Equal(got, []int{8}) || k.bytes != entrySize {
		t.Fatalf("kept %v, %d bytes; want [8], %d", got, k.bytes, entrySize)
	}
	k.forget()
	if len(k.recs) != 0 || k.bytes != 0 {
		t.Fatalf("forget left %v, %d bytes", k.versions(), k.bytes)
	}
}

// TestKeepWrittenDropsLowestID: written images join the kept set in
// order, and each that joins a full set pushes out the lowest ID.
func TestKeepWrittenDropsLowestID(t *testing.T) {
	var d RestoreDriver
	var images []*container.Container
	for id := container.ID(1); id <= 20; id++ {
		images = append(images, container.New(id))
	}
	d.KeepWritten(images[:3])
	if len(d.kept) != 3 {
		t.Fatalf("%d kept, want 3", len(d.kept))
	}
	d.KeepWritten(images[3:])
	for id := container.ID(1); id <= 20; id++ {
		if _, ok := d.kept[id]; ok != (id > 12) {
			t.Errorf("image %d kept %t, want %t", id, ok, id > 12)
		}
	}
	d.Forget()
	if len(d.kept) != 0 {
		t.Fatalf("%d kept after Forget", len(d.kept))
	}
}

// TestRestoreReplacesUnnamedKeptImages: a plain restore keeps the kept
// images its plan names and admits its first store reads in their place
// of the rest, lowest ID out first, so the set stays at its bound.
func TestRestoreReplacesUnnamedKeptImages(t *testing.T) {
	store := container.NewMemStore()
	var written []*container.Container
	rec := recipe.New(1)
	for id := container.ID(1); id <= 18; id++ {
		c := container.New(id)
		f := fp.FP{byte(id)}
		if err := c.Add(f, []byte{byte(id)}); err != nil {
			t.Fatal(err)
		}
		if err := store.Put(c); err != nil {
			t.Fatal(err)
		}
		if id > 10 {
			written = append(written, c)
		}
		if id <= 5 || id == 18 {
			rec.Append(f, 1, int32(id))
		}
	}
	recipes := recipe.NewMemStore()
	if err := recipes.Put(rec); err != nil {
		t.Fatal(err)
	}
	d := RestoreDriver{Recipes: recipes, Store: store, Cache: restorecache.NewFAA(1 << 20), PrefetchDepth: -1}
	d.KeepWritten(written) // 11 … 18
	var buf bytes.Buffer
	rep, err := d.Restore(context.Background(), 1, &buf, false, nil)
	if err != nil || rep.ResidentReads != 1 {
		t.Fatalf("restore: %v, %d reads from memory, want 1 (image 18)", err, rep.ResidentReads)
	}
	want := []container.ID{1, 2, 3, 4, 5, 16, 17, 18}
	var got []container.ID
	for id := range d.kept {
		got = append(got, id)
	}
	if slices.Sort(got); !slices.Equal(got, want) {
		t.Fatalf("kept %v after the restore, want %v", got, want)
	}
}
