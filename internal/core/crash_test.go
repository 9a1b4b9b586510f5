package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hidestore/internal/backend"
	"hidestore/internal/backup"
	"hidestore/internal/backup/backuptest"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/fault"
	"hidestore/internal/restorecache"
	"hidestore/internal/workload"
)

// crashWorkload is deliberately tiny: each matrix cell replays the whole
// script, so per-version cost multiplies by (ops × kinds).
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

// crashOpen builds a HiDeStore engine over dir's local-mode layout with
// the injector spliced into the container, recipe and state planes —
// every durable commit step draws from one op counter.
func crashOpen(dir string, inj *fault.Injector, commitDepth int) (backup.Engine, error) {
	return crashOpenHashing(dir, inj, commitDepth, 0)
}

// crashOpenHashing is crashOpen with hashWorkers fingerprinting lanes
// (0: the default).
func crashOpenHashing(dir string, inj *fault.Injector, commitDepth, hashWorkers int) (backup.Engine, error) {
	p, err := backuptest.DirPlanes(dir, inj)
	if err != nil {
		return nil, err
	}
	return New(Config{
		Store:             p.Containers,
		Recipes:           p.Recipes,
		State:             p.State,
		ContainerCapacity: 16 << 10,
		Window:            1,
		ChunkParams:       chunker.Params{Min: 1024, Avg: 2048, Max: 8192},
		HashWorkers:       hashWorkers,
		RestoreCache:      restorecache.NewFAA(1 << 20),
		AsyncCommitDepth:  commitDepth,
	})
}

// TestCrashMatrixBackup kills a 3-version backup run at every mutating
// op (clean fail, torn write, ENOSPC), reopens the directory, and
// proves recovery: committed versions restore byte-identically and
// fsck finds nothing.
func TestCrashMatrixBackup(t *testing.T) {
	versions := backuptest.Materialize(t, crashWorkload(3))
	backuptest.CrashMatrix(t, crashOpen, backuptest.BackupSteps(versions),
		[]fault.Kind{fault.Fail, fault.Torn, fault.NoSpace})
}

// TestCrashMatrixBackupLanes re-runs the backup crash matrix with one
// fingerprinting lane instead of the default four, so the matrix proves
// the serial and the parallel hash pipeline commit the same way:
// committed versions restore byte-identically however either was cut
// down.
func TestCrashMatrixBackupLanes(t *testing.T) {
	versions := backuptest.Materialize(t, crashWorkload(3))
	open := func(dir string, inj *fault.Injector, commitDepth int) (backup.Engine, error) {
		return crashOpenHashing(dir, inj, commitDepth, 1)
	}
	backuptest.CrashMatrix(t, open, backuptest.BackupSteps(versions),
		[]fault.Kind{fault.Fail, fault.Torn, fault.NoSpace})
}

// TestCrashMatrixDelete adds an expiry to the script: backups, a
// delete of the oldest version, and one more backup — so every crash
// point of the Delete commit order (recipe → state → containers) and
// of a post-delete backup is also exercised.
func TestCrashMatrixDelete(t *testing.T) {
	versions := backuptest.Materialize(t, crashWorkload(4))
	steps := backuptest.BackupSteps(versions[:3])
	steps = append(steps, backuptest.CrashStep{Delete: 1})
	steps = append(steps, backuptest.CrashStep{Data: versions[3]})
	backuptest.CrashMatrix(t, crashOpen, steps,
		[]fault.Kind{fault.Fail, fault.Torn, fault.NoSpace})
}

// crashOpenRemote builds the engine over the full composed backend
// stack — remote simulator (with deterministic transients the retry
// layer absorbs) × retry × persistent container cache — with the crash
// injector spliced in above each plane's stack, modeling a process that
// dies between commit steps. Torn debris goes down through the stack to
// the backing local tree, where the backend's reopen-time temp sweep
// must find it.
func crashOpenRemote(dir string, inj *fault.Injector, commitDepth int) (backup.Engine, error) {
	stack := func(sub string, seed int64, cache bool) (backend.Backend, error) {
		base, err := backend.NewLocal(filepath.Join(dir, "remote", sub))
		if err != nil {
			return nil, err
		}
		opts := backend.StackOptions{
			Sim: backend.SimOptions{FailEveryN: 7, Seed: seed, SleepScale: -1},
			Retry: backend.RetryOptions{
				Tries:    4,
				MinDelay: 10 * time.Microsecond,
				MaxDelay: 100 * time.Microsecond,
				Seed:     seed,
			},
		}
		if cache {
			opts.CacheDir = filepath.Join(dir, "cache")
			opts.CacheBytes = 1 << 20
		}
		b, _, err := backend.NewStack(base, opts)
		if err != nil {
			return nil, err
		}
		return fault.NewBackend(b, inj), nil
	}
	cb, err := stack("containers", 1, true)
	if err != nil {
		return nil, err
	}
	rb, err := stack("recipes", 2, false)
	if err != nil {
		return nil, err
	}
	sb, err := stack("state", 3, false)
	if err != nil {
		return nil, err
	}
	return New(Config{
		Store:             backend.NewContainerStore(cb, filepath.Join(dir, "remote", "containers")),
		Recipes:           backend.NewRecipeStore(rb),
		State:             sb,
		ContainerCapacity: 16 << 10,
		Window:            1,
		ChunkParams:       chunker.Params{Min: 1024, Avg: 2048, Max: 8192},
		RestoreCache:      restorecache.NewFAA(1 << 20),
		AsyncCommitDepth:  commitDepth,
	})
}

// TestCrashMatrixRemoteStack re-runs the backup crash matrix with every
// persistence layer behind the composed remote stack: commit ordering
// must survive not just process death but process death while the
// backend below is injecting transient faults that the retry layer
// silently absorbs, and with a persistent read cache interposed that
// must never resurrect uncommitted data after the reopen.
func TestCrashMatrixRemoteStack(t *testing.T) {
	versions := backuptest.Materialize(t, crashWorkload(3))
	backuptest.CrashMatrix(t, crashOpenRemote, backuptest.BackupSteps(versions),
		[]fault.Kind{fault.Fail, fault.Torn, fault.NoSpace})
}

// TestCrashMatrixDefaultWidth kills a backup/delete/backup script at
// seeded random ops with the commit plane at its default width — sealed,
// archival and merged images in flight together, landing in any order —
// on the local file stores and on the full remote stack. Whatever subset
// of the uncommitted images a crash leaves behind, reopening must sweep
// it and keep every committed version byte-identical.
func TestCrashMatrixDefaultWidth(t *testing.T) {
	versions := backuptest.Materialize(t, crashWorkload(4))
	steps := backuptest.BackupSteps(versions[:3])
	steps = append(steps, backuptest.CrashStep{Delete: 1}, backuptest.CrashStep{Data: versions[3]})
	kinds := []fault.Kind{fault.Fail, fault.Torn, fault.NoSpace}
	t.Run("local", func(t *testing.T) {
		backuptest.CrashRandom(t, crashOpen, steps, kinds, 15, 24)
	})
	t.Run("remote", func(t *testing.T) {
		backuptest.CrashRandom(t, crashOpenRemote, steps, kinds, 16, 24)
	})
}

// TestRetryAfterFailure fails a backup/delete/backup script at every
// mutating op, clears the fault and retries on the same engine: the engine
// has already moved its fingerprint cache and active-container map, so it
// must refuse rather than acknowledge a version built on containers that
// never landed. Reopening then recovers every committed version.
func TestRetryAfterFailure(t *testing.T) {
	versions := backuptest.Materialize(t, crashWorkload(4))
	steps := backuptest.BackupSteps(versions[:3])
	steps = append(steps, backuptest.CrashStep{Delete: 1}, backuptest.CrashStep{Data: versions[3]})
	backuptest.RetryAfterFailure(t, crashOpen, steps, []fault.Kind{fault.Fail, fault.NoSpace})
}

// TestFsckRepairQuarantines corrupts one archival container image on
// disk (bit rot), then verifies the full damage-control path: Repair
// reports the corruption, moves the image into the quarantine
// directory (never deletes it) and names the versions whose chunks it
// held, and a second Repair is clean apart from the now-unresolvable
// entries.
func TestFsckRepairQuarantines(t *testing.T) {
	dir := t.TempDir()
	e, err := crashOpen(dir, fault.NewInjector(), 0)
	if err != nil {
		t.Fatal(err)
	}
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(4, 0))
	backuptest.BackupAll(t, e, versions)

	inj := fault.NewInjector()
	e2, err := crashOpen(dir, inj, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := e2.(*Engine)

	// The audit reads stored containers in ascending-ID order, so the
	// 1-based position of the first archival (non-active) container is
	// the read index to corrupt. Corrupting an active container would
	// instead poison the state reload on the next open — a different
	// failure (covered by the reload error path), not bit rot on cold
	// data.
	stored, err := eng.cfg.Store.IDs()
	if err != nil {
		t.Fatal(err)
	}
	readIdx := 0
	for i, cid := range stored {
		if _, active := eng.activeContainers[cid]; !active {
			readIdx = i + 1
			break
		}
	}
	if readIdx == 0 {
		t.Fatal("workload produced no archival containers; nothing cold to corrupt")
	}
	inj.Arm(fault.CorruptRead, readIdx)
	rep, err := eng.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if !inj.Tripped() {
		t.Fatal("CorruptRead never fired: fsck read no containers")
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("Quarantined = %v, want exactly one image", rep.Quarantined)
	}
	if !strings.Contains(rep.Quarantined[0], container.QuarantineDir) {
		t.Fatalf("quarantined image %q not under the quarantine dir", rep.Quarantined[0])
	}
	if _, err := os.Stat(rep.Quarantined[0]); err != nil {
		t.Fatalf("reported quarantine path: %v", err)
	}
	if len(rep.Problems) == 0 {
		t.Fatal("a corrupt container produced no problems")
	}

	// The quarantined container held live chunks of at least one stored
	// version; Repair must name it.
	if len(rep.AffectedVersions) == 0 {
		t.Fatalf("no affected versions named; problems: %v", rep.Problems)
	}
	for _, v := range rep.AffectedVersions {
		if v < 1 || v > 4 {
			t.Fatalf("affected version %d out of range", v)
		}
	}

	// Reopen fresh (no injector tricks) and audit again: the corrupt
	// image is out of the way, so the only remaining problems are the
	// dangling references to it — no new decode failures.
	e3, err := crashOpen(dir, fault.NewInjector(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := e3.(*Engine).Repair()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Quarantined) != 0 {
		t.Fatalf("second repair quarantined more images: %v", rep2.Quarantined)
	}
	for _, p := range rep2.Problems {
		if strings.Contains(p, "cannot") {
			t.Fatalf("second repair hit an operational error: %s", p)
		}
	}
}
