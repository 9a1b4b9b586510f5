package core

import (
	"bytes"
	"context"
	"testing"

	"hidestore/internal/backup"
	"hidestore/internal/backup/backuptest"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/recipe"
)

// hashShare is what SHA-1 read of a version over its length.
func hashShare(rep backup.BackupReport) float64 {
	return float64(rep.HashedBytes) / float64(rep.LogicalBytes)
}

// TestResidentCompareWhileSealing: with 8 KB containers and small chunks
// the sink seals an image every few chunks while four hash workers prove
// predicted cuts against the previous version's hot chunks. The workers
// read a snapshot of the active images; the sink's seals write the
// engine's own map. Run under -race. Later versions hash well under half
// their bytes, and every version restores byte-identically.
func TestResidentCompareWhileSealing(t *testing.T) {
	e, err := New(Config{
		Store:             container.NewMemStore(),
		Recipes:           recipe.NewMemStore(),
		ContainerCapacity: 8 << 10,
		ChunkParams:       chunker.Params{Min: 256, Avg: 512, Max: 2048},
		HashWorkers:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Four 1 MiB stream slabs a version, so the workers are ahead of the
	// sink.
	w := backuptest.SmallWorkload(4, 0.2)
	w.Files = 100
	versions := backuptest.Materialize(t, w)
	sealed := 0
	for i, rep := range backuptest.BackupAll(t, e, versions) {
		sealed += int(rep.StoredBytes) / (8 << 10)
		if i > 0 && hashShare(rep) >= 0.5 {
			t.Errorf("v%d: hash share %.3f", i+1, hashShare(rep))
		}
		t.Logf("v%d: hash share %.3f, scan share %.3f", i+1, hashShare(rep), float64(rep.ScannedBytes)/float64(rep.LogicalBytes))
	}
	if sealed < 10*len(versions) {
		t.Errorf("%d images sealed over %d versions: too few for the sink to race the workers", sealed, len(versions))
	}
	backuptest.CheckRestoreAll(t, e, versions)
}

// TestReopenedStoreComparesResident: a directory store reopened by a new
// engine reloads its active images with the state file, so the first
// backup after the reopen — the newest stream again — proves its
// predicted cuts against them and hashes under half its bytes; every
// version, that one included, restores byte-identically.
func TestReopenedStoreComparesResident(t *testing.T) {
	dir := t.TempDir()
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(4, 0.2))
	backuptest.BackupAll(t, newPersistentEngine(t, dir, 1), versions)

	e := newPersistentEngine(t, dir, 1)
	newest := versions[len(versions)-1]
	rep, err := e.Backup(context.Background(), bytes.NewReader(newest))
	if err != nil {
		t.Fatal(err)
	}
	if 2*rep.HashedBytes >= rep.LogicalBytes {
		t.Errorf("hashed %d of %d bytes after the reopen", rep.HashedBytes, rep.LogicalBytes)
	}
	backuptest.CheckRestoreAll(t, e, append(versions, newest))
}
