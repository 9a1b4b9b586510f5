package core

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hidestore/internal/backend"
	"hidestore/internal/backup"
	"hidestore/internal/backup/backuptest"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
)

// planeEngine builds an engine over a memory or file container store at
// the given commit depth; small containers make every version seal, migrate
// and merge several images.
func planeEngine(t *testing.T, dir string, file bool, depth int) (*Engine, container.Store) {
	t.Helper()
	var store container.Store = container.NewMemStore()
	if file {
		local, err := backend.NewLocal(filepath.Join(dir, "containers"))
		if err != nil {
			t.Fatal(err)
		}
		store = backend.NewContainerStore(local, "", false)
	}
	state, err := backend.NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Store:             store,
		Recipes:           recipe.NewMemStore(),
		ContainerCapacity: 32 << 10,
		ChunkParams:       chunker.Params{Min: 1024, Avg: 2048, Max: 8192},
		RestoreCache:      restorecache.NewFAA(1 << 20),
		AsyncCommitDepth:  depth,
		State:             state,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, store
}

// storedImages returns every stored container's encoded bytes by ID.
func storedImages(t *testing.T, store container.Store) map[container.ID][]byte {
	t.Helper()
	ids, err := store.IDs()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[container.ID][]byte, len(ids))
	for _, id := range ids {
		c, err := store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if out[id], err = c.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestCommitDepthDoesNotChangeWhatIsStored: container IDs are assigned on
// the engine goroutine when a container is created, so how many images the
// commit plane keeps in flight changes neither which containers exist nor
// a byte of any of them, nor the written/migrated/merged accounting — and
// every version restores byte-identically, before and after a reopen.
func TestCommitDepthDoesNotChangeWhatIsStored(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(8, 0))
	for _, file := range []bool{false, true} {
		var wantImages map[container.ID][]byte
		var wantReports []backup.BackupReport
		for _, depth := range []int{1, 4, 0, -1} {
			e, store := planeEngine(t, t.TempDir(), file, depth)
			reports := backuptest.BackupAll(t, e, versions)
			if _, err := e.Delete(1); err != nil {
				t.Fatal(err)
			}
			for v := 2; v <= len(versions); v++ {
				backuptest.CheckRestoreOne(t, e, v, versions[v-1])
			}
			reopened, err := New(e.cfg)
			if err != nil {
				t.Fatalf("file=%t depth %d: reopen: %v", file, depth, err)
			}
			for v := 2; v <= len(versions); v++ {
				backuptest.CheckRestoreOne(t, reopened, v, versions[v-1])
			}
			images := storedImages(t, store)
			if wantImages == nil {
				wantImages, wantReports = images, reports
				if len(images) < 8 {
					t.Fatalf("only %d containers stored; the workload exercises nothing", len(images))
				}
				continue
			}
			if len(images) != len(wantImages) {
				t.Fatalf("file=%t depth %d: %d containers stored, depth 1 stored %d", file, depth, len(images), len(wantImages))
			}
			for id, want := range wantImages {
				if !bytes.Equal(images[id], want) {
					t.Fatalf("file=%t depth %d: container %d differs from depth 1's image", file, depth, id)
				}
			}
			for i, rep := range reports {
				want := wantReports[i]
				if rep.ContainerBytesWritten != want.ContainerBytesWritten ||
					rep.MigratedBytes != want.MigratedBytes || rep.MergedBytes != want.MergedBytes {
					t.Fatalf("file=%t depth %d v%d: written/migrated/merged %d/%d/%d, depth 1 reported %d/%d/%d",
						file, depth, rep.Version, rep.ContainerBytesWritten, rep.MigratedBytes, rep.MergedBytes,
						want.ContainerBytesWritten, want.MigratedBytes, want.MergedBytes)
				}
			}
		}
	}
}

// slowFailStore delays every Put, counts those in flight, and fails the
// nth (1-based) when failAt is set.
type slowFailStore struct {
	container.Store
	delay  time.Duration
	failAt int64
	puts   atomic.Int64
	flying atomic.Int64
}

var errPlaneInjected = errors.New("injected put failure")

func (s *slowFailStore) Put(c *container.Container) error {
	s.flying.Add(1)
	defer s.flying.Add(-1)
	n := s.puts.Add(1)
	time.Sleep(s.delay)
	if n == s.failAt {
		return errPlaneInjected
	}
	return s.Store.Put(c)
}

// TestBackupJoinsCommitPlane: whether a backup succeeds, fails on a
// container write or is cancelled, no commit is still in flight and no
// goroutine of the plane is left when Backup returns; a success reports
// the time it spent blocked on the plane.
func TestBackupJoinsCommitPlane(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(2, 0))
	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		name   string
		failAt int64
		cancel bool
	}{
		{name: "success"},
		{name: "put fails", failAt: 3},
		{name: "cancelled", cancel: true},
	} {
		store := &slowFailStore{Store: container.NewMemStore(), delay: 200 * time.Microsecond, failAt: tc.failAt}
		e, err := New(Config{
			Store:             store,
			Recipes:           recipe.NewMemStore(),
			ContainerCapacity: 16 << 10,
			ChunkParams:       chunker.Params{Min: 1024, Avg: 2048, Max: 8192},
			AsyncCommitDepth:  4,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		if tc.cancel {
			cancel()
		}
		rep, err := e.Backup(ctx, bytes.NewReader(versions[0]))
		cancel()
		switch {
		case tc.failAt > 0 && !errors.Is(err, errPlaneInjected):
			t.Fatalf("%s: Backup = %v, want the injected put failure", tc.name, err)
		case tc.cancel && !errors.Is(err, context.Canceled):
			t.Fatalf("%s: Backup = %v, want context.Canceled", tc.name, err)
		case tc.failAt == 0 && !tc.cancel && (err != nil || rep.CommitWait <= 0):
			t.Fatalf("%s: Backup = %v, CommitWait %v", tc.name, err, rep.CommitWait)
		}
		if n := store.flying.Load(); n != 0 {
			t.Fatalf("%s: %d container puts still in flight after Backup returned", tc.name, n)
		}
		if e.writer != nil {
			t.Fatalf("%s: the engine kept its commit plane past Backup", tc.name)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the backups, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestDeleteKeepsFailedRetirementsPending: retired images that could not
// be deleted stay queued for the next flush, and Delete counts only the
// containers it actually removed.
func TestDeleteKeepsFailedRetirementsPending(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(4, 0))
	mem := container.NewMemStore()
	store := &failDeleteStore{Store: mem}
	e, err := New(Config{
		Store:             store,
		Recipes:           recipe.NewMemStore(),
		ContainerCapacity: 16 << 10,
		ChunkParams:       chunker.Params{Min: 1024, Avg: 2048, Max: 8192},
		AsyncCommitDepth:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	backuptest.BackupAll(t, e, versions)
	batch := e.batches[1]
	if batch == nil || len(batch.containers) < 2 {
		t.Fatal("version 1 left no archival batch of two or more containers")
	}
	store.fail = batch.containers[1]
	rep, err := e.Delete(1)
	if !errors.Is(err, errPlaneInjected) {
		t.Fatalf("Delete = %v, want the injected failure", err)
	}
	// Width 1 deletes in order: exactly the first container went.
	if rep.ContainersDeleted != 1 {
		t.Fatalf("ContainersDeleted = %d, want 1", rep.ContainersDeleted)
	}

	e.pendingDeletes = []container.ID{batch.containers[1], batch.containers[0]}
	if err := e.flushPendingDeletes(); !errors.Is(err, errPlaneInjected) {
		t.Fatalf("flushPendingDeletes = %v, want the injected failure", err)
	}
	if len(e.pendingDeletes) != 2 {
		t.Fatalf("pendingDeletes = %v, want both IDs kept after the first failed", e.pendingDeletes)
	}
}

type failDeleteStore struct {
	container.Store
	fail container.ID
}

func (s *failDeleteStore) Delete(id container.ID) error {
	if id == s.fail {
		return errPlaneInjected
	}
	return s.Store.Delete(id)
}
