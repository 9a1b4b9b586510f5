package dedup

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"

	"hidestore/internal/backup"
	"hidestore/internal/backup/backuptest"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/recipe"
)

// TestIntraVersionDuplicates: a stream repeating the same content within
// one version must store it once and restore exactly.
func TestIntraVersionDuplicates(t *testing.T) {
	e, _, _ := newTestEngine(t, "ddfs", nil)
	rng := rand.New(rand.NewSource(9))
	blockA := make([]byte, 40<<10)
	rng.Read(blockA)
	stream := bytes.Join([][]byte{blockA, blockA, blockA}, nil)
	rep, err := e.Backup(context.Background(), bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	// Three copies: roughly one third should be stored (boundary chunks
	// around the joins differ).
	if rep.StoredBytes > rep.LogicalBytes/2 {
		t.Fatalf("stored %d of %d bytes; intra-version dedup failed", rep.StoredBytes, rep.LogicalBytes)
	}
	backuptest.CheckRestoreOne(t, e, 1, stream)
}

// TestReaderErrorPropagates: a failing source must abort the backup with
// the original error. Chunks of the dead stream have already been through
// the sink, so the engine refuses to build on that state — naming the
// first cause — while committed versions stay restorable.
func TestReaderErrorPropagates(t *testing.T) {
	e, _, _ := newTestEngine(t, "ddfs", nil)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(1, 0))
	backuptest.BackupAll(t, e, versions)
	boom := errors.New("source exploded")
	// Long enough that the pipeline's in-flight bound forces chunks through
	// the sink before the producer can reach the error.
	prefix := make([]byte, 2<<20)
	rand.New(rand.NewSource(5)).Read(prefix)
	src := io.MultiReader(bytes.NewReader(prefix), iotest.ErrReader(boom))
	if _, err := e.Backup(context.Background(), src); !errors.Is(err, boom) {
		t.Fatalf("got %v, want source error", err)
	}
	_, err := e.Backup(context.Background(), bytes.NewReader(versions[0]))
	if !errors.Is(err, backup.ErrFailed) || !errors.Is(err, boom) {
		t.Fatalf("backup after a failed one = %v, want ErrFailed wrapping the source error", err)
	}
	backuptest.CheckRestoreOne(t, e, 1, versions[0])
}

// TestContextCancellation: a cancelled context aborts the backup.
func TestContextCancellation(t *testing.T) {
	e, _, _ := newTestEngine(t, "ddfs", nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// An infinite reader: only cancellation can stop this backup.
	infinite := io.LimitReader(neverEnding{}, 1<<30)
	if _, err := e.Backup(ctx, infinite); err == nil {
		t.Fatal("cancelled backup should fail")
	}
}

type neverEnding struct{}

func (neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(i)
	}
	return len(p), nil
}

// TestDeleteReclaimsAcrossContainers: deleting all versions one by one
// empties the store completely.
func TestDeleteEverything(t *testing.T) {
	e, store, _ := newTestEngine(t, "ddfs", nil)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(4, 0))
	backuptest.BackupAll(t, e, versions)
	for v := 1; v <= 4; v++ {
		if _, err := e.Delete(v); err != nil {
			t.Fatalf("delete v%d: %v", v, err)
		}
	}
	if n, err := store.Len(); err != nil || n != 0 {
		t.Fatalf("%d containers survive deleting every version (err %v)", n, err)
	}
	if got := e.Stats().StoredBytes; got != 0 {
		t.Fatalf("StoredBytes = %d after deleting everything", got)
	}
}

// TestDeleteUnknownVersionFails covers the missing-version path.
func TestDeleteUnknownVersionFails(t *testing.T) {
	e, _, _ := newTestEngine(t, "ddfs", nil)
	if _, err := e.Delete(3); err == nil {
		t.Fatal("deleting an unknown version should fail")
	}
}

// TestCheckHealthyAndBroken covers the baseline fsck.
func TestCheckHealthyAndBroken(t *testing.T) {
	e, store, _ := newTestEngine(t, "ddfs", nil)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(3, 0))
	backuptest.BackupAll(t, e, versions)
	rep, err := e.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("healthy store has problems: %v", rep.Problems)
	}
	if rep.Versions != 3 || rep.Containers == 0 {
		t.Fatalf("report %+v", rep)
	}
	// Break it: drop a container.
	ids, err := store.IDs()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	rep, err = e.Check()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("missing container went undetected")
	}
}

// TestPerVersionReportDiffs: per-version index stats are deltas, not
// cumulative totals.
func TestPerVersionReportDiffs(t *testing.T) {
	e, _, _ := newTestEngine(t, "ddfs", nil)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(3, 0))
	reports := backuptest.BackupAll(t, e, versions)
	var sum uint64
	for _, rep := range reports {
		sum += rep.IndexStats.Lookups
	}
	if total := e.cfg.Index.Stats().Lookups; total != sum {
		t.Fatalf("per-version lookups sum %d != cumulative %d", sum, total)
	}
}

// TestSegmentBoundarySmall: segment size 1 exercises per-chunk commits.
func TestSegmentBoundarySmall(t *testing.T) {
	store, recipes := newStores(t)
	e, err := New(Config{
		Index:             newIndex(t, "ddfs"),
		Store:             store,
		Recipes:           recipes,
		ContainerCapacity: 64 << 10,
		SegmentChunks:     1,
		ChunkParams:       testChunkParams(),
	})
	if err != nil {
		t.Fatal(err)
	}
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(3, 0))
	backuptest.BackupAll(t, e, versions)
	backuptest.CheckRestoreAll(t, e, versions)
}

// newStores and testChunkParams are small helpers for bespoke configs.
func newStores(t testing.TB) (*container.MemStore, *recipe.MemStore) {
	t.Helper()
	return container.NewMemStore(), recipe.NewMemStore()
}

func testChunkParams() chunker.Params {
	return chunker.Params{Min: 1024, Avg: 2048, Max: 8192}
}
