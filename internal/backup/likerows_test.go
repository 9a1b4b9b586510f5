package backup_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"hidestore/internal/backup"
	"hidestore/internal/backup/backuptest"
	"hidestore/internal/container"
	"hidestore/internal/container/containertest"
	"hidestore/internal/core"
	"hidestore/internal/dedup"
	"hidestore/internal/fp"
	"hidestore/internal/index/ddfs"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
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

// TestStoreReadsEqualCountedReads is the §5.3 accounting identity where
// the reads happen: the store serves exactly the container reads a
// restore's Stats.ContainerReads counts, bar those the engine's resident
// active images serve, which the report counts as ResidentReads. The
// restore driver builds the only fetcher that reads the store or memory
// and the policy's counting layer sits on it, so no engine code can add
// an uncounted read; this pins the outcome, exactly, for both engines
// across every policy, read-ahead depth and assembler width, for the
// verifying restore (no memory read), and for an engine reopened on
// file-backed stores. Neither read-ahead nor the assembler changes which
// reads happen or where they are served: for each engine and policy every
// version's store and memory reads are the same at depth −1 (serial), 0
// (the default) and 2, at either width. Nor does an earlier restore: the
// driver keeps no image between restores, so every restore of the sweep
// splits its reads exactly as it does when it is the first since a
// mutation. A restore cancelled while its early archival reads are in
// flight leaves none running and changes nothing the next restore reads
// (cancelledRestoreLeavesNothing).
func TestStoreReadsEqualCountedReads(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(8, 0))
	const capacity = 64 << 10
	ctx := context.Background()
	// split is one restore's reads: served by the store, from memory.
	type split struct{ store, memory uint64 }
	// sweep restores every version newest → oldest, each from a zeroed
	// store read count and after before (when set), and returns each
	// restore's split.
	sweep := func(t *testing.T, store *containertest.CountingStore,
		restore func(context.Context, int, io.Writer) (backup.RestoreReport, error), before func()) []split {
		t.Helper()
		var splits []split
		for v := len(versions); v >= 1; v-- {
			if before != nil {
				before()
			}
			store.Reset()
			var buf bytes.Buffer
			rep, err := restore(ctx, v, &buf)
			if err != nil {
				t.Fatalf("restore v%d: %v", v, err)
			}
			if !bytes.Equal(buf.Bytes(), versions[v-1]) {
				t.Fatalf("v%d: restored bytes differ from the original", v)
			}
			reads, counted := store.Reads(), rep.Stats.ContainerReads
			if reads+rep.ResidentReads != counted {
				t.Errorf("v%d: the store served %d container reads and memory %d, the restore counted %d",
					v, reads, rep.ResidentReads, counted)
			}
			splits = append(splits, split{reads, rep.ResidentReads})
		}
		return splits
	}
	engines := []struct {
		name string
		open func(store container.Store, cache restorecache.Cache, depth int) (backup.Engine, error)
	}{
		{"core", func(store container.Store, cache restorecache.Cache, depth int) (backup.Engine, error) {
			return core.New(core.Config{
				Store: store, Recipes: recipe.NewMemStore(), ContainerCapacity: capacity,
				RestoreCache: cache, PrefetchDepth: depth,
			})
		}},
		{"dedup", func(store container.Store, cache restorecache.Cache, depth int) (backup.Engine, error) {
			ix, err := ddfs.New(ddfs.Options{})
			if err != nil {
				return nil, err
			}
			return dedup.New(dedup.Config{
				Index: ix, Store: store, Recipes: recipe.NewMemStore(), ContainerCapacity: capacity,
				RestoreCache: cache, PrefetchDepth: depth,
			})
		}},
	}
	for _, eng := range engines {
		for _, policy := range []string{"faa", "container-lru", "opt", "chunk-lru", "alacc"} {
			// open backs the versions up through a fresh engine.
			open := func(t *testing.T, depth int) (backup.Engine, *containertest.CountingStore) {
				cache, err := restorecache.New(policy)
				if err != nil {
					t.Fatal(err)
				}
				store := containertest.Counting(container.NewMemStore())
				e, err := eng.open(store, cache, depth)
				if err != nil {
					t.Fatal(err)
				}
				backuptest.BackupAll(t, e, versions)
				return e, store
			}
			// fresh is each version's split when its restore is the first
			// since a mutation: a Repair, which on a healthy store changes
			// nothing else, precedes each one.
			var fresh []split
			t.Run(fmt.Sprintf("%s/%s/fresh", eng.name, policy), func(t *testing.T) {
				e, store := open(t, -1)
				fresh = sweep(t, store, e.Restore, func() {
					if _, err := e.(backup.Repairer).Repair(); err != nil {
						t.Fatal(err)
					}
				})
			})
			bySplit := map[string]string{} // each cell's splits, newest → oldest
			for _, depth := range []int{-1, 0, 2} {
				// The assembly width is GOMAXPROCS's: 1 runs the serial
				// assembler, 4 the parallel one at width 4.
				for _, workers := range []int{0, 4} {
					cell := fmt.Sprintf("%s/%s/depth%d/workers%d", eng.name, policy, depth, workers)
					t.Run(cell, func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(workers, 1)))
						e, store := open(t, depth)
						splits := sweep(t, store, e.Restore, nil)
						if len(fresh) != len(splits) {
							t.Fatal("no fresh sweep to compare with")
						}
						for i, sp := range splits {
							if sp != fresh[i] {
								t.Errorf("v%d: %+v, restored first after a mutation %+v", len(versions)-i, sp, fresh[i])
							}
						}
						bySplit[cell] = fmt.Sprint(splits)
					})
				}
			}
			serial := fmt.Sprintf("%s/%s/depth-1/workers0", eng.name, policy)
			for cell, splits := range bySplit {
				if splits != bySplit[serial] {
					t.Errorf("%s read %s from store and memory, %s %s: read-ahead or assembly changed which reads happen or where",
						cell, splits, serial, bySplit[serial])
				}
			}
		}
	}
	t.Run("core/cancelled", func(t *testing.T) { cancelledRestoreLeavesNothing(t, versions) })
	t.Run("core/verify", func(t *testing.T) {
		store := containertest.Counting(container.NewMemStore())
		e, err := core.New(core.Config{Store: store, Recipes: recipe.NewMemStore(), ContainerCapacity: capacity})
		if err != nil {
			t.Fatal(err)
		}
		backuptest.BackupAll(t, e, versions)
		for _, sp := range sweep(t, store, e.VerifyRestore, nil) {
			if sp.memory != 0 {
				t.Errorf("a verifying restore read %d images from memory, want every read from the store", sp.memory)
			}
		}
	})
	t.Run("core/reopened-filestore", func(t *testing.T) {
		dir := t.TempDir()
		open := func() (*core.Engine, *containertest.CountingStore) {
			p, err := backuptest.DirPlanes(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			store := containertest.Counting(p.Containers)
			e, err := core.New(core.Config{
				Store: store, Recipes: p.Recipes, State: p.State, ContainerCapacity: capacity,
			})
			if err != nil {
				t.Fatal(err)
			}
			return e, store
		}
		e, _ := open()
		backuptest.BackupAll(t, e, versions)
		reopened, store := open()
		if splits := sweep(t, store, reopened.Restore, nil); splits[0].memory == 0 {
			t.Error("a reopened engine's first restore read nothing from memory: the reloaded actives went unused")
		}
	})
}
