package backup_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"hidestore/internal/backup"
	"hidestore/internal/backup/backuptest"
	"hidestore/internal/container"
	"hidestore/internal/core"
	"hidestore/internal/dedup"
	"hidestore/internal/fp"
	"hidestore/internal/index/ddfs"
	"hidestore/internal/recipe"
)

// TestEnginesIngestTheSameChunks pins "same path": the benchmark judges
// HiDeStore against the baseline on the same bytes (kernel-mem and
// kernel-ddfs), which is only fair if both engines cut and fingerprint
// those bytes identically. They ingest through one skeleton, so the same
// stream must yield recipes with the identical (fingerprint, size)
// sequence per version under either engine, at any hash-worker count and
// however the source's reads are split into lanes (with 3 lanes no read
// crosses a third of a version) — only the container IDs, which are
// policy, may differ.
func TestEnginesIngestTheSameChunks(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(3, 0))
	type chunk struct {
		fp   fp.FP
		size uint32
	}
	// lanes serves data as n readers back to back, so no source read
	// crosses a lane seam (every ceil(len/n) bytes).
	lanes := func(data []byte, n int) io.Reader {
		seg := (len(data) + n - 1) / n
		var rs []io.Reader
		for off := 0; off < len(data); off += seg {
			rs = append(rs, bytes.NewReader(data[off:min(off+seg, len(data))]))
		}
		return io.MultiReader(rs...)
	}
	sequence := func(t *testing.T, e backup.Engine, recipes recipe.Store, n int) [][]chunk {
		for v, data := range versions {
			if _, err := e.Backup(context.Background(), lanes(data, n)); err != nil {
				t.Fatalf("backup of version %d: %v", v+1, err)
			}
		}
		backuptest.CheckRestoreAll(t, e, versions)
		out := make([][]chunk, len(versions))
		for v := range versions {
			rec, err := recipes.Get(v + 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, entry := range rec.Entries {
				out[v] = append(out[v], chunk{entry.FP, entry.Size})
			}
		}
		return out
	}
	var want [][]chunk
	for _, workers := range []int{1, 4} {
		for _, n := range []int{1, 3} {
			t.Run(fmt.Sprintf("workers%d-lanes%d", workers, n), func(t *testing.T) {
				hideRecipes := recipe.NewMemStore()
				hide, err := core.New(core.Config{
					Store: container.NewMemStore(), Recipes: hideRecipes, HashWorkers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				ix, err := ddfs.New(ddfs.Options{})
				if err != nil {
					t.Fatal(err)
				}
				baseRecipes := recipe.NewMemStore()
				base, err := dedup.New(dedup.Config{
					Index: ix, Store: container.NewMemStore(), Recipes: baseRecipes, HashWorkers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := map[string][][]chunk{
					"core":  sequence(t, hide, hideRecipes, n),
					"dedup": sequence(t, base, baseRecipes, n),
				}
				if want == nil {
					want = got["core"]
				}
				for name, seq := range got {
					for v := range versions {
						if len(seq[v]) == 0 || len(seq[v]) != len(want[v]) {
							t.Fatalf("%s v%d: %d chunks, the reference run cut %d", name, v+1, len(seq[v]), len(want[v]))
						}
						for i := range seq[v] {
							if seq[v][i] != want[v][i] {
								t.Fatalf("%s v%d chunk %d: %v, the reference run had %v", name, v+1, i, seq[v][i], want[v][i])
							}
						}
					}
				}
			})
		}
	}
}
