package dedup

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"hidestore/internal/backup/backuptest"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/index"
	"hidestore/internal/index/ddfs"
	"hidestore/internal/index/extbin"
	"hidestore/internal/index/silo"
	"hidestore/internal/index/sparse"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
	"hidestore/internal/rewrite"
)

func newIndex(t testing.TB, name string) index.Index {
	t.Helper()
	switch name {
	case "ddfs":
		ix, err := ddfs.New(ddfs.Options{ExpectedChunks: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	case "sparse":
		ix, err := sparse.New(sparse.Options{SampleBits: 3})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	case "silo":
		ix, err := silo.New(silo.Options{SegmentsPerBlock: 4})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	case "extbin":
		ix, err := extbin.New(extbin.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	default:
		t.Fatalf("unknown index %q", name)
		return nil
	}
}

func newTestEngine(t testing.TB, indexName string, rw rewrite.Rewriter) (*Engine, *container.MemStore, *recipe.MemStore) {
	t.Helper()
	store := container.NewMemStore()
	recipes := recipe.NewMemStore()
	e, err := New(Config{
		Index:             newIndex(t, indexName),
		Rewriter:          rw,
		Store:             store,
		Recipes:           recipes,
		ContainerCapacity: 64 << 10,
		SegmentChunks:     64,
		ChunkParams:       chunker.Params{Min: 1024, Avg: 2048, Max: 8192},
		RestoreCache:      restorecache.NewFAA(1 << 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, store, recipes
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing Index should fail")
	}
	ix := newIndex(t, "ddfs")
	if _, err := New(Config{Index: ix}); err == nil {
		t.Fatal("missing Store should fail")
	}
	if _, err := New(Config{Index: ix, Store: container.NewMemStore()}); err == nil {
		t.Fatal("missing Recipes should fail")
	}
}

// TestBackupRestoreAllIndexes runs the full cycle under each baseline
// index.
func TestBackupRestoreAllIndexes(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(6, 0))
	for _, name := range []string{"ddfs", "sparse", "silo", "extbin"} {
		t.Run(name, func(t *testing.T) {
			e, _, _ := newTestEngine(t, name, nil)
			backuptest.BackupAll(t, e, versions)
			backuptest.CheckRestoreAll(t, e, versions)
		})
	}
}

// TestBackupRestoreAllRewriters runs the full cycle under each rewriting
// scheme (with DDFS indexing, so only rewriting varies).
func TestBackupRestoreAllRewriters(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(6, 0))
	for _, name := range []string{"none", "capping", "cbr", "cfl", "fbw", "har"} {
		t.Run(name, func(t *testing.T) {
			rw, err := rewrite.New(name)
			if err != nil {
				t.Fatal(err)
			}
			if c, ok := rw.(*rewrite.Capping); ok {
				c.Cap = 4 // small cap for small containers
			}
			e, _, _ := newTestEngine(t, "ddfs", rw)
			backuptest.BackupAll(t, e, versions)
			backuptest.CheckRestoreAll(t, e, versions)
		})
	}
}

// TestBackupRestoreAllRestoreCaches verifies each restore cache against
// the same stored state.
func TestBackupRestoreAllRestoreCaches(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(5, 0))
	for _, name := range []string{"container-lru", "chunk-lru", "faa", "alacc", "opt"} {
		t.Run(name, func(t *testing.T) {
			rc, err := restorecache.New(name)
			if err != nil {
				t.Fatal(err)
			}
			store := container.NewMemStore()
			recipes := recipe.NewMemStore()
			e, err := New(Config{
				Index:             newIndex(t, "ddfs"),
				Store:             store,
				Recipes:           recipes,
				ContainerCapacity: 64 << 10,
				SegmentChunks:     64,
				ChunkParams:       chunker.Params{Min: 1024, Avg: 2048, Max: 8192},
				RestoreCache:      rc,
			})
			if err != nil {
				t.Fatal(err)
			}
			backuptest.BackupAll(t, e, versions)
			backuptest.CheckRestoreAll(t, e, versions)
		})
	}
}

// TestExactDedupRatio: DDFS must eliminate every repeated byte across two
// identical backups.
func TestExactDedupRatio(t *testing.T) {
	e, _, _ := newTestEngine(t, "ddfs", nil)
	data := backuptest.Materialize(t, backuptest.SmallWorkload(1, 0))[0]
	r1, err := e.Backup(context.Background(), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r1.StoredBytes != r1.LogicalBytes {
		t.Fatalf("first backup should store everything: %+v", r1)
	}
	r2, err := e.Backup(context.Background(), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r2.StoredBytes != 0 {
		t.Fatalf("identical second backup stored %d bytes, want 0", r2.StoredBytes)
	}
	if r2.DedupRatio() != 1 {
		t.Fatalf("DedupRatio = %v, want 1", r2.DedupRatio())
	}
}

// TestRewritingCostsSpace: capping must store more than exact dedup on a
// fragmented workload (the Figure 8 trade-off).
func TestRewritingCostsSpace(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(8, 0))
	exact, _, _ := newTestEngine(t, "ddfs", nil)
	backuptest.BackupAll(t, exact, versions)
	capping, _, _ := newTestEngine(t, "ddfs", rewrite.NewCapping(2))
	backuptest.BackupAll(t, capping, versions)
	if capping.Stats().StoredBytes <= exact.Stats().StoredBytes {
		t.Fatalf("capping stored %d bytes, exact stored %d: rewriting must cost space",
			capping.Stats().StoredBytes, exact.Stats().StoredBytes)
	}
	if capping.Stats().RewriteStats.Rewritten == 0 {
		t.Fatal("capping never rewrote on a fragmented workload")
	}
}

// TestDeleteMarkSweep exercises the baseline GC path: space is reclaimed,
// the effort is proportional to everything stored, and remaining versions
// survive.
func TestDeleteMarkSweep(t *testing.T) {
	e, store, _ := newTestEngine(t, "ddfs", nil)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(6, 0))
	backuptest.BackupAll(t, e, versions)
	containersBefore, err := store.Len()
	if err != nil {
		t.Fatal(err)
	}

	rep, err := e.Delete(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksScanned == 0 {
		t.Fatal("mark-and-sweep must scan chunk references")
	}
	if rep.BytesReclaimed == 0 {
		t.Fatal("deleting a version with exclusive chunks should reclaim space")
	}
	if rep.ContainersDeleted == 0 && rep.ContainersRewritten == 0 {
		t.Fatal("sweep should touch containers")
	}
	_ = containersBefore
	for v := 2; v <= 6; v++ {
		backuptest.CheckRestoreOne(t, e, v, versions[v-1])
	}
	// Double delete fails.
	if _, err := e.Delete(1); err == nil {
		t.Fatal("double delete should fail")
	}
}

// TestDeleteMiddleVersionAllowed: unlike HiDeStore, the baseline can
// delete any version (at GC cost).
func TestDeleteMiddleVersionAllowed(t *testing.T) {
	e, _, _ := newTestEngine(t, "ddfs", nil)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(5, 0))
	backuptest.BackupAll(t, e, versions)
	if _, err := e.Delete(3); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, 2, 4, 5} {
		backuptest.CheckRestoreOne(t, e, v, versions[v-1])
	}
}

func TestFragmentationGrowsOverVersions(t *testing.T) {
	e, _, recipes := newTestEngine(t, "ddfs", nil)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(10, 0))
	backuptest.BackupAll(t, e, versions)
	// The container spread of version 10 must exceed that of version 2:
	// fragmentation accumulates (Figure 2).
	early, err := recipes.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	late, err := recipes.Get(10)
	if err != nil {
		t.Fatal(err)
	}
	if late.UniqueContainers() <= early.UniqueContainers() {
		t.Fatalf("containers referenced: v2=%d v10=%d; fragmentation should grow",
			early.UniqueContainers(), late.UniqueContainers())
	}
}

func TestStatsAccumulate(t *testing.T) {
	e, _, _ := newTestEngine(t, "ddfs", nil)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(3, 0))
	reports := backuptest.BackupAll(t, e, versions)
	st := e.Stats()
	var logical uint64
	for _, rep := range reports {
		logical += rep.LogicalBytes
	}
	if st.LogicalBytes != logical {
		t.Fatalf("LogicalBytes = %d, want %d", st.LogicalBytes, logical)
	}
	if st.Versions != 3 || st.Containers == 0 || st.IndexMemBytes == 0 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestEmptyVersion(t *testing.T) {
	e, _, _ := newTestEngine(t, "ddfs", nil)
	rep, err := e.Backup(context.Background(), strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chunks != 0 {
		t.Fatalf("empty backup: %+v", rep)
	}
	var buf bytes.Buffer
	if _, err := e.Restore(context.Background(), 1, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatal("empty version should restore empty")
	}
}

func TestRestoreUnknownVersion(t *testing.T) {
	e, _, _ := newTestEngine(t, "ddfs", nil)
	var buf bytes.Buffer
	if _, err := e.Restore(context.Background(), 4, &buf); err == nil {
		t.Fatal("restore of unknown version should fail")
	}
}

func TestFileBackedRoundTrip(t *testing.T) {
	p, err := backuptest.DirPlanes(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Index:             newIndex(t, "ddfs"),
		Store:             p.Containers,
		Recipes:           p.Recipes,
		ContainerCapacity: 64 << 10,
		SegmentChunks:     64,
		ChunkParams:       chunker.Params{Min: 1024, Avg: 2048, Max: 8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(4, 0))
	backuptest.BackupAll(t, e, versions)
	backuptest.CheckRestoreAll(t, e, versions)
}
