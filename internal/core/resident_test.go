package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hidestore/internal/backup"
	"hidestore/internal/backup/backuptest"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/container/containertest"
	"hidestore/internal/fault"
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

// TestCorruptStoredActiveServedResident flips one payload byte of a
// stored active image on a directory store. The newest version's plain
// restore reads its active containers from the engine's memory, so it is
// byte-identical, and it never reads the rotted image from the store:
// that read would fail its CRC and the restore with it. The damage
// surfaces where the stored bytes are read: a verifying restore of the
// same version fails and names the container, and a scrub pass flags it.
func TestCorruptStoredActiveServedResident(t *testing.T) {
	dir := t.TempDir()
	p, err := backuptest.DirPlanes(dir, fault.NewInjector())
	if err != nil {
		t.Fatal(err)
	}
	store := containertest.Counting(p.Containers)
	e, err := New(scrubConfig(p, store))
	if err != nil {
		t.Fatal(err)
	}
	cdir := filepath.Join(dir, "containers")
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(4, 0))
	backuptest.BackupAll(t, e, versions)
	victim := container.ID(0)
	for id := range e.activeContainers {
		victim = max(victim, id)
	}
	if victim == 0 {
		t.Fatal("workload left no active container")
	}
	path := imagePath(cdir, victim)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0xFF // the image ends with its payload
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	newest := len(versions)
	store.Reset()
	var buf bytes.Buffer
	rep, err := e.Restore(context.Background(), newest, &buf)
	if err != nil {
		t.Fatalf("restore v%d over a rotted stored active image: %v", newest, err)
	}
	if !bytes.Equal(buf.Bytes(), versions[newest-1]) {
		t.Fatalf("v%d restored bytes differ from the original", newest)
	}
	if reads := store.Reads(); reads+rep.ResidentReads != rep.Stats.ContainerReads || rep.ResidentReads == 0 {
		t.Errorf("v%d: %d store reads + %d resident reads, %d counted", newest, reads, rep.ResidentReads, rep.Stats.ContainerReads)
	}

	_, err = e.VerifyRestore(context.Background(), newest, io.Discard)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("container %d", victim)) {
		t.Fatalf("verifying restore of v%d: %v, want an error naming container %d", newest, err, victim)
	}

	flagged := false
	for _, step := range scrubPass(t, e) {
		if step.Corrupt != "" {
			if step.Container != uint64(victim) {
				t.Errorf("scrub flagged container %d, the rotted one is %d", step.Container, victim)
			}
			flagged = true
		}
	}
	if !flagged {
		t.Error("scrub pass missed the rotted active image")
	}
}

// TestScrubHealsRottedActiveImage rots one payload byte of a stored
// active image on a directory store. The scrub pass must rewrite the
// image from the engine's resident copy instead of quarantining it: the
// state file names every active image, so a quarantined one would make
// the next open fail. Backups and restores go on, the store reopens,
// fscks clean and restores every version byte-identically.
func TestScrubHealsRottedActiveImage(t *testing.T) {
	dir := t.TempDir()
	e, cdir := scrubOpen(t, dir, fault.NewInjector())
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(5, 0))
	backuptest.BackupAll(t, e, versions[:4])
	victim := container.ID(0)
	for id := range e.activeContainers {
		victim = max(victim, id)
	}
	if victim == 0 {
		t.Fatal("workload left no active container")
	}
	path := imagePath(cdir, victim)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0xFF // the image ends with its payload
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	healed := false
	for _, step := range scrubPass(t, e) {
		if step.Corrupt == "" {
			continue
		}
		if step.Container != uint64(victim) || step.Quarantined != "" {
			t.Errorf("scrub step %+v, want container %d flagged and not quarantined", step, victim)
		}
		healed = true
	}
	if !healed {
		t.Fatal("scrub pass missed the rotted active image")
	}
	want := fmt.Sprintf("scrub: container %d:", victim)
	if d := e.Stats().Degraded; len(d) != 1 || !strings.HasPrefix(d[0], want) || !strings.HasSuffix(d[0], "(rewritten from the resident copy)") {
		t.Errorf("Stats().Degraded = %q, want one %q line ending in the rewrite", d, want)
	}
	for _, step := range scrubPass(t, e) {
		if step.Corrupt != "" {
			t.Errorf("the pass after the rewrite still finds %+v", step)
		}
	}

	if _, err := e.Backup(context.Background(), bytes.NewReader(versions[4])); err != nil {
		t.Fatalf("backup after the rewrite: %v", err)
	}
	backuptest.CheckRestoreAll(t, e, versions)
	reopened, _ := scrubOpen(t, dir, fault.NewInjector())
	backuptest.CheckRestoreAll(t, reopened, versions)
	rep, err := reopened.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 0 {
		t.Errorf("fsck after the rewrite: %v", rep.Problems)
	}
}
