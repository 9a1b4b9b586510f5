package hidestore

// Cross-component integration tests through the public API only.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
)

// TestEveryRestoreCacheRoundTrips runs the cycle under each restore cache.
func TestEveryRestoreCacheRoundTrips(t *testing.T) {
	versions := testVersions(t, 4)
	for _, cache := range []string{"faa", "alacc", "container-lru", "chunk-lru", "opt"} {
		t.Run(cache, func(t *testing.T) {
			sys, err := Open(Config{
				RestoreCache:  cache,
				ContainerSize: 64 << 10,
				MinChunk:      1024, AvgChunk: 2048, MaxChunk: 8192,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for _, data := range versions {
				if _, err := sys.Backup(ctx, bytes.NewReader(data)); err != nil {
					t.Fatal(err)
				}
			}
			for i, want := range versions {
				var buf bytes.Buffer
				if _, err := sys.Restore(ctx, i+1, &buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("version %d corrupted under %s", i+1, cache)
				}
			}
		})
	}
}

// TestPersistenceAcrossReopen drives the public API through a simulated
// process restart: back up, reopen, continue, restore everything, fsck.
func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	versions := testVersions(t, 6)
	ctx := context.Background()
	cfg := Config{
		Dir:           dir,
		ContainerSize: 64 << 10,
		MinChunk:      1024, AvgChunk: 2048, MaxChunk: 8192,
	}
	sys1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range versions[:3] {
		if _, err := sys1.Backup(ctx, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	sys2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys2.Backup(ctx, bytes.NewReader(versions[3]))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 4 || rep.DedupRatio < 0.5 {
		t.Fatalf("reopen broke continuity: %+v", rep)
	}
	for _, data := range versions[4:] {
		if _, err := sys2.Backup(ctx, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range versions {
		var buf bytes.Buffer
		if _, err := sys2.Restore(ctx, i+1, &buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("version %d corrupted across reopen", i+1)
		}
	}
	fsck, err := sys2.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !fsck.OK() {
		t.Fatalf("fsck problems: %v", fsck.Problems)
	}
	if fsck.Versions != 6 || fsck.Containers == 0 {
		t.Fatalf("fsck report %+v", fsck)
	}
}

// TestFsckBaseline verifies the baseline engine's checker through the
// public API.
func TestFsckBaseline(t *testing.T) {
	sys, err := OpenBaseline(BaselineConfig{
		Config: Config{ContainerSize: 64 << 10, MinChunk: 1024, AvgChunk: 2048, MaxChunk: 8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, data := range testVersions(t, 3) {
		if _, err := sys.Backup(ctx, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sys.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("baseline fsck problems: %v", rep.Problems)
	}
}

// TestWindowMismatchOnReopen: reopening a store with a different window
// must be refused (the state encodes it).
func TestWindowMismatchOnReopen(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	sys1, err := Open(Config{Dir: dir, Window: 1, ContainerSize: 64 << 10,
		MinChunk: 1024, AvgChunk: 2048, MaxChunk: 8192})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys1.Backup(ctx, bytes.NewReader(testVersions(t, 1)[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir, Window: 2}); err == nil {
		t.Fatal("window mismatch should be refused")
	}
}

// TestConcurrentUse hammers one System from many goroutines; the internal
// mutex must serialize operations without races or corruption.
func TestConcurrentUse(t *testing.T) {
	sys, err := Open(Config{ContainerSize: 64 << 10, MinChunk: 1024, AvgChunk: 2048, MaxChunk: 8192})
	if err != nil {
		t.Fatal(err)
	}
	versions := testVersions(t, 8)
	ctx := context.Background()
	// Seed a few versions so restores have something to read.
	for _, data := range versions[:4] {
		if _, err := sys.Backup(ctx, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	// Concurrent backups get version numbers in scheduling order; record
	// which stream landed on which version.
	var assignMu sync.Mutex
	assigned := map[int][]byte{1: versions[0], 2: versions[1], 3: versions[2], 4: versions[3]}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 4; i < 8; i++ {
		wg.Add(1)
		go func(data []byte) {
			defer wg.Done()
			rep, err := sys.Backup(ctx, bytes.NewReader(data))
			if err != nil {
				errs <- err
				return
			}
			assignMu.Lock()
			assigned[rep.Version] = data
			assignMu.Unlock()
		}(versions[i])
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			var buf bytes.Buffer
			if _, err := sys.Restore(ctx, v, &buf); err != nil {
				errs <- err
			} else if !bytes.Equal(buf.Bytes(), versions[v-1]) {
				errs <- errRestoredMismatch
			}
			sys.Stats()
			sys.Versions()
		}(i%4 + 1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Everything still restores after the storm, matching whichever
	// stream each version number was assigned.
	for v := 1; v <= 8; v++ {
		var buf bytes.Buffer
		if _, err := sys.Restore(ctx, v, &buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), assigned[v]) {
			t.Fatalf("version %d corrupted", v)
		}
	}
}

var errRestoredMismatch = errors.New("restored bytes differ")
