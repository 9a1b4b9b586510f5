package backup_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"hidestore/internal/backend"
	"hidestore/internal/backup"
	"hidestore/internal/backup/backuptest"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/core"
	"hidestore/internal/dedup"
	"hidestore/internal/index/ddfs"
)

// The restore driver's kept set (DESIGN.md, "Restore driver"): images a
// plain restore read from the store serve later plain restores until the
// engine next mutates the store. These tests run both engines on a
// directory store and hold them to an engine freshly opened on the same
// directory, whose kept set is empty. Restores read serially, so even a
// failing one makes the same store reads on every run.

// recordingStore names the reads the directory store serves. It embeds
// the adapter itself, so Repair and scrub can still quarantine through it.
type recordingStore struct {
	*backend.ContainerStore
	mu    sync.Mutex
	reads []container.ID
}

// Get implements container.Store, recording every read that succeeds.
func (s *recordingStore) Get(id container.ID) (*container.Container, error) {
	c, err := s.ContainerStore.Get(id)
	if err == nil {
		s.mu.Lock()
		s.reads = append(s.reads, id)
		s.mu.Unlock()
	}
	return c, err
}

// take returns the reads served since the last take.
func (s *recordingStore) take() []container.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	reads := s.reads
	s.reads = nil
	return reads
}

type keptEngine interface {
	backup.Engine
	backup.Checker
	backup.Repairer
}

// openKept opens engine ("core" or "dedup") on the store directory dir.
func openKept(t *testing.T, engine, dir string) (keptEngine, *recordingStore) {
	t.Helper()
	p, err := backuptest.DirPlanes(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := &recordingStore{ContainerStore: p.Containers}
	const capacity = 16 << 10 // many images per version, more than the set holds
	params := chunker.Params{Min: 1024, Avg: 2048, Max: 8192}
	var e keptEngine
	switch engine {
	case "core":
		e, err = core.New(core.Config{
			Store: store, Recipes: p.Recipes, State: p.State, ContainerCapacity: capacity,
			ChunkParams: params, PrefetchDepth: -1,
		})
	case "dedup":
		ix, ierr := ddfs.New(ddfs.Options{})
		if ierr != nil {
			t.Fatal(ierr)
		}
		e, err = dedup.New(dedup.Config{
			Index: ix, Store: store, Recipes: p.Recipes, ContainerCapacity: capacity,
			ChunkParams: params, PrefetchDepth: -1,
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return e, store
}

// keptRestore is one restore's outcome: what it wrote, its error and the
// reads the store served for it.
type keptRestore struct {
	data  []byte
	rep   backup.RestoreReport
	err   error
	reads []container.ID
}

func restoreKept(e keptEngine, store *recordingStore, version int, verify bool) keptRestore {
	store.take()
	var buf bytes.Buffer
	restore := e.Restore
	if verify {
		restore = e.(*core.Engine).VerifyRestore
	}
	rep, err := restore(context.Background(), version, &buf)
	return keptRestore{data: buf.Bytes(), rep: rep, err: err, reads: store.take()}
}

// sweepAndFindKept restores every stored version newest → oldest, then
// each again down to the oldest one, and returns the first version above
// it that reads an image the sweep read from the store and the second
// restore read from memory: a kept image.
func sweepAndFindKept(t *testing.T, e keptEngine, store *recordingStore, versions [][]byte) (version int, kept container.ID) {
	t.Helper()
	vs := e.Versions()
	swept := map[int][]container.ID{}
	for i := len(vs) - 1; i >= 0; i-- {
		r := restoreKept(e, store, vs[i], false)
		if r.err != nil || !bytes.Equal(r.data, versions[vs[i]-1]) {
			t.Fatalf("sweep: restore v%d: %v, or the bytes differ", vs[i], r.err)
		}
		swept[vs[i]] = r.reads
	}
	for i := len(vs) - 1; i >= 1; i-- {
		again := restoreKept(e, store, vs[i], false)
		if again.err != nil {
			t.Fatal(again.err)
		}
		for _, id := range swept[vs[i]] {
			if !slices.Contains(again.reads, id) {
				return vs[i], id
			}
		}
	}
	t.Fatal("no image read from the store in the sweep was kept")
	return 0, 0
}

// rot flips the last byte of a stored image, which is payload.
func rot(t *testing.T, dir string, id container.ID) {
	t.Helper()
	path := filepath.Join(dir, "containers", backend.ContainerName(id))
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0xFF
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestKeptImagesDroppedByMutations: after a full sweep, each operation
// that may delete, rewrite or quarantine a stored image — Delete (the
// baseline's sweep rewrites images under their IDs), Repair and a
// quarantining scrub step after a kept image rotted on disk, Backup —
// leaves the next restore exactly as on a freshly opened engine: the same
// bytes or the same error, from the same store reads.
func TestKeptImagesDroppedByMutations(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(8, 0))
	for _, engine := range []string{"core", "dedup"} {
		for _, mutation := range []string{"delete", "repair", "scrub", "backup"} {
			if mutation == "scrub" && engine == "dedup" {
				continue // the baseline has no scrubber
			}
			t.Run(engine+"/"+mutation, func(t *testing.T) {
				dir := t.TempDir()
				e, store := openKept(t, engine, dir)
				backuptest.BackupAll(t, e, versions[:len(versions)-1])
				target, victim := sweepAndFindKept(t, e, store, versions) // target > 1, so Delete(1) leaves it
				switch mutation {
				case "delete":
					if _, err := e.Delete(1); err != nil {
						t.Fatal(err)
					}
				case "repair":
					rot(t, dir, victim)
					rep, err := e.Repair()
					if err != nil || len(rep.Quarantined) != 1 {
						t.Fatalf("repair: %v, quarantined %v", err, rep.Quarantined)
					}
				case "scrub":
					rot(t, dir, victim)
					for {
						rep, err := e.(backup.Scrubber).ScrubStep(context.Background())
						if err != nil {
							t.Fatal(err)
						}
						if rep.Quarantined != "" {
							break
						}
						if rep.PassComplete {
							t.Fatalf("a scrub pass left rotted image %d in place", victim)
						}
					}
				case "backup":
					if _, err := e.Backup(context.Background(), bytes.NewReader(versions[len(versions)-1])); err != nil {
						t.Fatal(err)
					}
				}
				got := restoreKept(e, store, target, false)
				fresh, freshStore := openKept(t, engine, dir)
				want := restoreKept(fresh, freshStore, target, false)
				if fmt.Sprint(got.err) != fmt.Sprint(want.err) || !bytes.Equal(got.data, want.data) {
					t.Errorf("restore v%d: %d bytes, error %v; a freshly opened engine: %d bytes, error %v",
						target, len(got.data), got.err, len(want.data), want.err)
				}
				if len(got.reads) != len(want.reads) {
					t.Errorf("restore v%d: %d store reads, a freshly opened engine's %d", target, len(got.reads), len(want.reads))
				}
				if mutation == "delete" && got.err != nil {
					t.Errorf("restore v%d after deleting v1: %v", target, got.err)
				}
				if (mutation == "repair" || mutation == "scrub") && got.err == nil {
					t.Errorf("restore v%d succeeded without quarantined image %d", target, victim)
				}
			})
		}
	}
}

// TestIntegrityReadsPastKeptImages: a plain restore may serve an image an
// earlier restore read, but fsck and a verifying restore read the disk,
// so an image that rotted after it was kept is still found.
func TestIntegrityReadsPastKeptImages(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(8, 0))
	for _, engine := range []string{"core", "dedup"} {
		t.Run(engine, func(t *testing.T) {
			dir := t.TempDir()
			e, store := openKept(t, engine, dir)
			backuptest.BackupAll(t, e, versions)
			target, victim := sweepAndFindKept(t, e, store, versions)
			rot(t, dir, victim)
			if r := restoreKept(e, store, target, false); r.err != nil || !bytes.Equal(r.data, versions[target-1]) {
				t.Fatalf("plain restore v%d from the kept image: %v, or the bytes differ", target, r.err)
			}
			named := fmt.Sprintf("container %d", victim)
			rep, err := e.Check()
			if err != nil || !slices.ContainsFunc(rep.Problems, func(p string) bool { return strings.HasPrefix(p, named+":") }) {
				t.Errorf("fsck: %v, problems %q, want one naming rotted %s", err, rep.Problems, named)
			}
			if engine != "core" {
				return // only HiDeStore restores verifying
			}
			if r := restoreKept(e, store, target, true); r.err == nil || !strings.Contains(r.err.Error(), named) {
				t.Fatalf("verifying restore of v%d: %v, want an error naming rotted %s", target, r.err, named)
			}
		})
	}
}

// TestKeptImagesOutliveNonMutations: a restore's write-back of the recipe
// it resolved, FlattenRecipes and a healthy scrub step change no stored
// image, so the kept set survives each of them.
func TestKeptImagesOutliveNonMutations(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(8, 0))
	dir := t.TempDir()
	ke, store := openKept(t, "core", dir)
	backuptest.BackupAll(t, ke, versions)
	e := ke.(*core.Engine)
	first := restoreKept(e, store, 1, false)
	if first.err != nil || first.rep.RecipesRead < 2 {
		t.Fatalf("restore v1: %v after %d recipe reads, want a followed pointer and a write-back", first.err, first.rep.RecipesRead)
	}
	settled := restoreKept(e, store, 1, false)
	if settled.err != nil || len(settled.reads) >= len(first.reads) {
		t.Fatalf("restore v1 again: %v, %d store reads after the write-back, %d before", settled.err, len(settled.reads), len(first.reads))
	}
	steps := map[string]func() error{
		"flatten": func() error { return e.FlattenRecipes(1) },
		"scrub step": func() error {
			rep, err := e.ScrubStep(context.Background())
			if err == nil && rep.Corrupt != "" {
				err = fmt.Errorf("scrub flagged container %d: %s", rep.Container, rep.Corrupt)
			}
			return err
		},
	}
	for _, name := range []string{"flatten", "scrub step"} {
		if err := steps[name](); err != nil {
			t.Fatal(err)
		}
		if r := restoreKept(e, store, 1, false); r.err != nil || len(r.reads) != len(settled.reads) {
			t.Errorf("after %s: restore v1: %v, %d store reads, %d before it", name, r.err, len(r.reads), len(settled.reads))
		}
	}
}
