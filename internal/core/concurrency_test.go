package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"hidestore/internal/backup/backuptest"
	"hidestore/internal/container"
)

// TestConcurrentReadDuringMaintenance pins the Store ownership contract:
// once Put hands a container to the store, readers must observe an
// immutable snapshot even while the engine keeps appending to its active
// containers, migrating cold chunks and dropping expired containers.
// Before MemStore.Put snapshotted, the engine's post-Put mutations of
// active containers raced with restore-style readers; run with -race.
func TestConcurrentReadDuringMaintenance(t *testing.T) {
	e, store, _ := newTestEngine(t, 1)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(8, 0.2))
	// Seed one version so readers see data from the first iteration.
	if _, err := e.Backup(context.Background(), bytes.NewReader(versions[0])); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				ids, err := store.IDs()
				if err != nil {
					t.Errorf("IDs during maintenance: %v", err)
					return
				}
				for _, id := range ids {
					c, err := store.Get(id)
					if errors.Is(err, container.ErrNotFound) {
						continue // swept between IDs() and Get()
					}
					if err != nil {
						t.Errorf("Get(%d) during maintenance: %v", id, err)
						return
					}
					for _, f := range c.Fingerprints() {
						if _, err := c.View(f); err != nil {
							t.Errorf("chunk %s vanished from snapshot %d: %v", f.Short(), id, err)
							return
						}
					}
				}
			}
		}()
	}

	// Backup maintenance in the main goroutine: rotation, cold migration,
	// sparse merging, container deletes — all while readers scan.
	for v := 1; v < len(versions); v++ {
		if _, err := e.Backup(context.Background(), bytes.NewReader(versions[v])); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	backuptest.CheckRestoreAll(t, e, versions)
}

// TestRestoreHonorsContext: the engine-level restore path propagates
// cancellation from the caller's context.
func TestRestoreHonorsContext(t *testing.T) {
	e, _, _ := newTestEngine(t, 1)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(2, 0))
	backuptest.BackupAll(t, e, versions)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Restore(ctx, 1, &bytes.Buffer{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("restore with cancelled ctx returned %v, want context.Canceled", err)
	}
}
