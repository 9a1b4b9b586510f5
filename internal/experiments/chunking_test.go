package experiments

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"slices"
	"testing"

	"hidestore"
	"hidestore/internal/backend"
	"hidestore/internal/backup"
	"hidestore/internal/core"
	"hidestore/internal/dedup"
	"hidestore/internal/fp"
	"hidestore/internal/recipe"
)

// TestFiguresCutLikeTheProduct backs one small kernel version up through
// hidestore.Open with nothing but a Dir set and through the engines the
// experiments build, and requires the same chunks — count and fingerprint
// sequence — from each, and from chunkRefs, the index figures' cut. A
// figure cut with another chunker than the one that ships fails here.
func TestFiguresCutLikeTheProduct(t *testing.T) {
	opts := Options{ScaleMB: 1, Versions: 1}.withDefaults()
	w, err := opts.loadWorkload("kernel")
	if err != nil {
		t.Fatal(err)
	}
	var data []byte
	if err := forEachVersion(w, func(_ int, r io.Reader) (err error) {
		data, err = io.ReadAll(r)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fps := func(r *recipe.Recipe) []fp.FP {
		out := make([]fp.FP, len(r.Entries))
		for i, e := range r.Entries {
			out[i] = e.FP
		}
		return out
	}

	dir := t.TempDir()
	sys, err := hidestore.Open(hidestore.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	product, err := sys.Backup(ctx, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	recipes, err := backend.NewLocal(filepath.Join(dir, "recipes"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := backend.NewRecipeStore(recipes).Get(1)
	if err != nil {
		t.Fatal(err)
	}
	want := fps(r)
	if len(want) != product.Chunks {
		t.Fatalf("product recipe holds %d entries, its report %d chunks", len(want), product.Chunks)
	}

	hc := hidestoreConfig(opts, w)
	bc, err := baselineConfig(opts, "ddfs", "none", "faa")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		open    func() (backup.Engine, error)
		recipes recipe.Store
	}{
		{"hidestore", func() (backup.Engine, error) { return core.New(hc) }, hc.Recipes},
		{"baseline", func() (backup.Engine, error) { return dedup.New(bc) }, bc.Recipes},
	} {
		e, err := c.open()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Backup(ctx, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.recipes.Get(1)
		if err != nil {
			t.Fatal(err)
		}
		if got := fps(r); rep.Chunks != product.Chunks || !slices.Equal(got, want) {
			t.Errorf("%s engine cut %d chunks, the product %d (same fingerprints: %v)",
				c.name, rep.Chunks, product.Chunks, slices.Equal(got, want))
		}
	}

	refs, err := chunkRefs(bytes.NewReader(data), opts.ChunkParams)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]fp.FP, len(refs))
	for i, ref := range refs {
		got[i] = ref.FP
	}
	if !slices.Equal(got, want) {
		t.Errorf("chunkRefs cut %d chunks, the product %d (same fingerprints: %v)", len(refs), len(want), slices.Equal(got, want))
	}
}
