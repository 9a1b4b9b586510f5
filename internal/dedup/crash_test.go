package dedup

import (
	"path/filepath"
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
