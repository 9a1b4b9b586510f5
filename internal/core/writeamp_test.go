package core

import (
	"bytes"
	"context"
	"testing"

	"hidestore/internal/backup/backuptest"
	"hidestore/internal/container"
	"hidestore/internal/container/containertest"
	"hidestore/internal/recipe"
	"hidestore/internal/workload"
)

// TestWriteAmplification pins what write-once active containers buy: a
// version writes its unique chunks once, plus only what maintenance
// actually copies (cold chunks into archival containers, sparse
// containers into merged ones) — never the whole active set. Run at the
// benchmark's own scale (8 × 32 MB, product-default chunking and 4 MB
// containers), where rewriting every touched active image cost 1.12×
// (kernel) and 1.36× (gcc) of the logical stream per incremental.
func TestWriteAmplification(t *testing.T) {
	if testing.Short() {
		t.Skip("backs up 2 × 256 MB")
	}
	for _, tc := range []struct {
		preset string
		bound  float64 // Σ container bytes written ÷ Σ logical, v2..vN
	}{
		{"kernel", 0.25},
		{"gcc", 0.65},
	} {
		t.Run(tc.preset, func(t *testing.T) {
			cfg, err := workload.Preset(tc.preset, 32)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Versions = 8
			store := containertest.Counting(container.NewMemStore())
			e, err := New(Config{Store: store, Recipes: recipe.NewMemStore()})
			if err != nil {
				t.Fatal(err)
			}
			var written, logical uint64
			before := store.Written()
			for _, data := range backuptest.Materialize(t, cfg) {
				rep, err := e.Backup(context.Background(), bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				// The report agrees with what the store saw, and every
				// written byte is accounted for: unique + migrated + merged.
				after := store.Written()
				if got := after - before; got != rep.ContainerBytesWritten {
					t.Fatalf("v%d: report says %d container bytes written, the store saw %d",
						rep.Version, rep.ContainerBytesWritten, got)
				}
				before = after
				budget := rep.StoredBytes + rep.MigratedBytes + rep.MergedBytes + container.DefaultCapacity
				if rep.ContainerBytesWritten > budget {
					t.Errorf("v%d: wrote %d container bytes for %d unique + %d migrated + %d merged",
						rep.Version, rep.ContainerBytesWritten, rep.StoredBytes, rep.MigratedBytes, rep.MergedBytes)
				}
				if rep.Version >= 2 {
					written += rep.ContainerBytesWritten
					logical += rep.LogicalBytes
				}
			}
			ratio := float64(written) / float64(logical)
			t.Logf("%s v2..v8: %d container bytes written for %d logical = %.3f×", tc.preset, written, logical, ratio)
			if ratio > tc.bound {
				t.Errorf("%s: write amplification %.3f× of logical, want ≤ %.2f×", tc.preset, ratio, tc.bound)
			}
		})
	}
}
