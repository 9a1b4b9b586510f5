package dedup

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"hidestore/internal/backup"
	"hidestore/internal/backup/backuptest"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/fault"
	"hidestore/internal/index/ddfs"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
	"hidestore/internal/workload"
)

func crashWorkload(versions int) workload.Config {
	return workload.Config{
		Name:          "crash",
		Versions:      versions,
		Files:         4,
		BlocksPerFile: 6,
		BlockSize:     2048,
		ModifyRate:    0.10,
		InsertRate:    0.01,
		DeleteRate:    0.005,
		FileChurn:     0.05,
		Seed:          42,
	}
}

// crashOpen builds a file-backed baseline engine with fault-injected
// stores. The baseline keeps no state file, so its commit point is the
// recipe write (containers are sealed first).
func crashOpen(dir string, inj *fault.Injector, commitDepth int) (backup.Engine, error) {
	cs, err := container.NewFileStore(filepath.Join(dir, "containers"))
	if err != nil {
		return nil, err
	}
	rs, err := recipe.NewFileStore(filepath.Join(dir, "recipes"))
	if err != nil {
		return nil, err
	}
	ix, err := ddfs.New(ddfs.Options{ExpectedChunks: 1 << 16})
	if err != nil {
		return nil, err
	}
	return New(Config{
		Index:             ix,
		Store:             fault.NewStore(cs, inj, cs.Path),
		Recipes:           fault.NewRecipeStore(rs, inj, rs.Path),
		ContainerCapacity: 16 << 10,
		ChunkParams:       chunker.Params{Min: 1024, Avg: 2048, Max: 8192},
		RestoreCache:      restorecache.NewFAA(1 << 20),
		AsyncCommitDepth:  commitDepth,
	})
}

// TestCrashMatrixBackup kills a 3-version baseline backup run at every
// mutating op and verifies the container-before-recipe commit order:
// after reopening, every version whose recipe committed restores
// byte-identically. Only clean failure kinds run here — the baseline
// has no startup recovery, so a torn container image would sit at its
// final path until fsck flags it (HiDeStore's middleware engine sweeps
// such debris at open; see the core crash matrix).
func TestCrashMatrixBackup(t *testing.T) {
	versions := backuptest.Materialize(t, crashWorkload(3))
	backuptest.CrashMatrix(t, crashOpen, backuptest.BackupSteps(versions),
		[]fault.Kind{fault.Fail, fault.NoSpace})
}

// TestRetryAfterFailure fails a 3-version backup run at every mutating
// op, clears the fault and retries on the same engine. The index has
// already committed segments that name containers the failed backup never
// landed, so the engine must refuse the retry instead of acknowledging a
// version that cannot be restored; reopening recovers what committed.
func TestRetryAfterFailure(t *testing.T) {
	versions := backuptest.Materialize(t, crashWorkload(3))
	backuptest.RetryAfterFailure(t, crashOpen, backuptest.BackupSteps(versions),
		[]fault.Kind{fault.Fail, fault.NoSpace})
}

// TestFailedDeleteLatches: a garbage-collection sweep that dies half way
// leaves the byte counts and the store out of step, so the engine refuses
// further writes and says so in Stats, while restores keep working.
func TestFailedDeleteLatches(t *testing.T) {
	versions := backuptest.Materialize(t, crashWorkload(3))
	inj := fault.NewInjector()
	e, err := crashOpen(t.TempDir(), inj, 0)
	if err != nil {
		t.Fatal(err)
	}
	backuptest.BackupAll(t, e, versions)
	inj.Arm(fault.NoSpace, 2) // op 1 removes the recipe, op 2 is the sweep's first write
	if _, err := e.Delete(1); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Delete = %v, want the injected failure", err)
	}
	if _, err := e.Delete(2); !errors.Is(err, backup.ErrFailed) {
		t.Fatalf("Delete after a failed Delete = %v, want ErrFailed", err)
	}
	if _, err := e.Backup(context.Background(), bytes.NewReader(versions[0])); !errors.Is(err, backup.ErrFailed) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Backup after a failed Delete = %v, want ErrFailed wrapping the injected cause", err)
	}
	if d := e.Stats().Degraded; len(d) != 1 || !strings.Contains(d[0], "reopen") {
		t.Fatalf("Stats().Degraded = %q, want the sticky failure", d)
	}
	backuptest.CheckRestoreOne(t, e, 3, versions[2])
}
