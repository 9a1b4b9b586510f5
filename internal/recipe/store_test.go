package recipe_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hidestore/internal/backend"
	"hidestore/internal/durable"
	"hidestore/internal/recipe"
)

// The file-backed recipe store is backend.RecipeStore over a
// backend.Local rooted at the store directory: one r_<n>.rcp file per
// version.

// openFileStore opens the file-backed store rooted at dir.
func openFileStore(t *testing.T, dir string) *backend.RecipeStore {
	t.Helper()
	local, err := backend.NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	return backend.NewRecipeStore(local)
}

func storesUnderTest(t *testing.T) map[string]recipe.Store {
	t.Helper()
	return map[string]recipe.Store{"mem": recipe.NewMemStore(), "file": openFileStore(t, t.TempDir())}
}

func TestStoreCRUD(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			r := recipe.SampleRecipe(3, 20)
			if err := s.Put(r); err != nil {
				t.Fatal(err)
			}
			if has, err := s.Has(3); err != nil || !has {
				t.Fatalf("Has(3) = %v, %v", has, err)
			}
			if has, err := s.Has(4); err != nil || has {
				t.Fatalf("Has(4) = %v, %v", has, err)
			}
			got, err := s.Get(3)
			if err != nil {
				t.Fatal(err)
			}
			if got.Version != 3 || got.NumChunks() != 20 {
				t.Fatal("Get returned wrong recipe")
			}
			if _, err := s.Get(99); !errors.Is(err, recipe.ErrNotFound) {
				t.Fatalf("Get missing: %v", err)
			}
			if err := s.Delete(3); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(3); !errors.Is(err, recipe.ErrNotFound) {
				t.Fatalf("double delete: %v", err)
			}
		})
	}
}

func TestStoreVersionsSorted(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			for _, v := range []int{4, 1, 2} {
				if err := s.Put(recipe.SampleRecipe(v, 2)); err != nil {
					t.Fatal(err)
				}
			}
			got, err := s.Versions()
			if err != nil {
				t.Fatal(err)
			}
			want := []int{1, 2, 4}
			if len(got) != len(want) {
				t.Fatalf("Versions = %v", got)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Versions = %v, want %v", got, want)
				}
			}
			if n, err := s.Len(); err != nil || n != 3 {
				t.Fatalf("Len = %d, %v", n, err)
			}
		})
	}
}

func TestStorePutValidation(t *testing.T) {
	for name, s := range storesUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put(nil); err == nil {
				t.Fatal("Put(nil) should fail")
			}
			if err := s.Put(recipe.New(0)); err == nil {
				t.Fatal("Put(version 0) should fail")
			}
			if err := s.Put(recipe.New(-1)); err == nil {
				t.Fatal("Put(negative version) should fail")
			}
		})
	}
}

func TestFileStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s1 := openFileStore(t, dir)
	if err := s1.Put(recipe.SampleRecipe(5, 7)); err != nil {
		t.Fatal(err)
	}
	s2 := openFileStore(t, dir)
	got, err := s2.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumChunks() != 7 {
		t.Fatal("recipe not persisted")
	}
}

// TestFileStoreSweepsTempsAtOpen: stale tmp-* debris a crashed writer
// left behind is removed when the store is reopened; committed recipes
// are untouched.
func TestFileStoreSweepsTempsAtOpen(t *testing.T) {
	dir := t.TempDir()
	s1 := openFileStore(t, dir)
	if err := s1.Put(recipe.SampleRecipe(1, 3)); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, durable.TempPrefix+"654321")
	if err := os.WriteFile(stale, []byte("half a recipe"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openFileStore(t, dir)
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp file survived reopen: %v", err)
	}
	if has, err := s2.Has(1); err != nil || !has {
		t.Fatalf("committed recipe lost by the sweep: %v, %v", has, err)
	}
}

// TestFileStoreErrorsSurface: when the store directory itself is
// unreadable, Has/Versions/Len report the failure instead of reading
// as "absent"/"empty". (The directory is replaced with a regular file;
// chmod tricks don't work when the suite runs as root.)
func TestFileStoreErrorsSurface(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "recipes")
	s := openFileStore(t, dir)
	if err := s.Put(recipe.SampleRecipe(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Has(1); err == nil {
		t.Fatal("Has() on an unreadable store dir returned nil error")
	}
	if _, err := s.Versions(); err == nil {
		t.Fatal("Versions() on an unreadable store dir returned nil error")
	}
	if _, err := s.Len(); err == nil {
		t.Fatal("Len() on an unreadable store dir returned nil error")
	}
}
