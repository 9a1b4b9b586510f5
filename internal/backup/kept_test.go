package backup_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hidestore/internal/backend"
	"hidestore/internal/backup"
	"hidestore/internal/backup/backuptest"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/core"
	"hidestore/internal/dedup"
	"hidestore/internal/index/ddfs"
	"hidestore/internal/recipe"
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

// recordingRecipes names the recipe reads the directory store serves.
// With tear set, a Put of that version leaves torn bytes under its name
// in dir's recipe store and fails, as a write cut short does.
type recordingRecipes struct {
	recipe.Store
	mu    sync.Mutex
	reads []int
	dir   string
	tear  int
}

// Put implements recipe.Store.
func (s *recordingRecipes) Put(r *recipe.Recipe) error {
	if r != nil && r.Version == s.tear {
		if err := os.WriteFile(filepath.Join(s.dir, "recipes", backend.RecipeName(r.Version)), []byte("torn"), 0o644); err != nil {
			return err
		}
		return fmt.Errorf("recipe v%d: write torn", r.Version)
	}
	return s.Store.Put(r)
}

// Get implements recipe.Store, recording every read that succeeds.
func (s *recordingRecipes) Get(version int) (*recipe.Recipe, error) {
	rec, err := s.Store.Get(version)
	if err == nil {
		s.mu.Lock()
		s.reads = append(s.reads, version)
		s.mu.Unlock()
	}
	return rec, err
}

// take returns the reads served since the last take, ascending.
func (s *recordingRecipes) take() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	reads := s.reads
	s.reads = nil
	slices.Sort(reads)
	return reads
}

// openKept opens engine ("core" or "dedup") on the store directory dir.
func openKept(t *testing.T, engine, dir string) (keptEngine, *recordingStore) {
	t.Helper()
	e, store, _ := openKeptRecipes(t, engine, dir)
	return e, store
}

// openKeptRecipes is openKept, also recording the recipe store's reads.
func openKeptRecipes(t *testing.T, engine, dir string) (keptEngine, *recordingStore, *recordingRecipes) {
	t.Helper()
	p, err := backuptest.DirPlanes(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := &recordingStore{ContainerStore: p.Containers}
	recipes := &recordingRecipes{Store: p.Recipes, dir: dir}
	const capacity = 16 << 10 // many images per version, more than the set holds
	params := chunker.Params{Min: 1024, Avg: 2048, Max: 8192}
	var e keptEngine
	switch engine {
	case "core":
		e, err = core.New(core.Config{
			Store: store, Recipes: recipes, State: p.State, ContainerCapacity: capacity,
			ChunkParams: params, PrefetchDepth: -1,
		})
	case "dedup":
		ix, ierr := ddfs.New(ddfs.Options{})
		if ierr != nil {
			t.Fatal(ierr)
		}
		e, err = dedup.New(dedup.Config{
			Index: ix, Store: store, Recipes: recipes, ContainerCapacity: capacity,
			ChunkParams: params, PrefetchDepth: -1,
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return e, store, recipes
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
// each again from the second oldest up, and returns the first that reads
// an image the sweep read from the store and the second restore read from
// memory: a kept image.
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
	for i := 1; i < len(vs); i++ {
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
// quarantining scrub step after a kept image rotted on disk, the
// baseline's Backup — leaves the next restore exactly as on a freshly
// opened engine: the same bytes or the same error, from the same store
// reads. HiDeStore's Backup changes no archival image, so its kept images
// stay: the restore reads from the store only images the fresh engine
// reads, and serves each read it saves from memory.
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
				if engine == "core" && mutation == "backup" {
					saved := len(want.reads) - len(got.reads)
					if slices.ContainsFunc(got.reads, func(id container.ID) bool { return !slices.Contains(want.reads, id) }) ||
						saved < 0 || uint64(saved) != got.rep.ResidentReads-want.rep.ResidentReads {
						t.Errorf("restore v%d: store reads %v, %d from memory; a freshly opened engine's %v, %d from memory",
							target, got.reads, got.rep.ResidentReads, want.reads, want.rep.ResidentReads)
					}
				} else if len(got.reads) != len(want.reads) {
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

// rotRecipe flips the last byte of version's stored recipe, which the
// recipe's checksum covers.
func rotRecipe(t *testing.T, dir string, version int) {
	t.Helper()
	path := filepath.Join(dir, "recipes", backend.RecipeName(version))
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// recipeRestore is one restore's outcome with the recipe reads the store
// served for it.
type recipeRestore struct {
	keptRestore
	recipeReads []int
}

func restoreRecipes(e keptEngine, store *recordingStore, recipes *recordingRecipes, version int, verify bool) recipeRestore {
	recipes.take()
	r := restoreKept(e, store, version, verify)
	return recipeRestore{keptRestore: r, recipeReads: recipes.take()}
}

// TestKeptRecipesFollowWrites: the restore driver's kept recipes
// (DESIGN.md, "Restore driver") are always the stored ones. After each
// operation that writes, deletes or may damage a stored recipe — a torn
// write included — the next restore of the versions it touched equals a
// freshly opened engine's —
// bytes or error, and RecipesRead — and reads from the recipe store
// exactly what the fresh engine reads, bar the versions the kept set
// should hold after that operation: every version the engine wrote or a
// plain restore read (these chains fit the byte budget), none after
// Repair or a damaging scrub step.
// A sweep newest → oldest right after the backups reads nothing from the
// recipe store; on an engine reopened over the same directory it reads
// each version's own recipe once and nothing else, and a backup reads
// none.
func TestKeptRecipesFollowWrites(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(8, 0))
	n := len(versions)
	// upTo lists versions 1 … v.
	upTo := func(v int) []int {
		vs := make([]int, v)
		for i := range vs {
			vs[i] = i + 1
		}
		return vs
	}
	// sweep restores every stored version newest → oldest and checks each
	// one's recipe store reads: none where the engine kept them all, its
	// own on a reopened engine.
	sweep := func(t *testing.T, k *keptRun, reopened bool) {
		t.Helper()
		vs := k.e.Versions()
		for i := len(vs) - 1; i >= 0; i-- {
			v := vs[i]
			r := restoreRecipes(k.e, k.store, k.recipes, v, false)
			if r.err != nil || !bytes.Equal(r.data, versions[v-1]) {
				t.Fatalf("sweep: restore v%d: %v, or the bytes differ", v, r.err)
			}
			var want []int
			if reopened {
				want = []int{v}
			}
			if !slices.Equal(r.recipeReads, want) {
				t.Errorf("sweep: restore v%d read recipes %v from the store, want %v", v, r.recipeReads, want)
			}
		}
	}
	type mutation struct {
		name string
		// run mutates k's engine on dir and returns the versions to restore
		// after it and the ones the kept set should then hold.
		run func(t *testing.T, k *keptRun, dir string) (targets, kept []int)
	}
	mutations := []mutation{
		{"sweep", func(t *testing.T, k *keptRun, dir string) ([]int, []int) {
			backuptest.BackupAll(t, k.e, versions)
			sweep(t, k, false)
			k.reopen(t, dir)
			sweep(t, k, true)
			return []int{1, 2}, upTo(n)
		}},
		{"backup", func(t *testing.T, k *keptRun, dir string) ([]int, []int) {
			backuptest.BackupAll(t, k.e, versions[:n-1])
			k.recipes.take()
			if _, err := k.e.Backup(context.Background(), bytes.NewReader(versions[n-1])); err != nil {
				t.Fatal(err)
			}
			if reads := k.recipes.take(); len(reads) != 0 {
				t.Errorf("backup v%d read recipes %v from the store, want none", n, reads)
			}
			return []int{n, n - 1}, upTo(n)
		}},
		{"failed-put", func(t *testing.T, k *keptRun, dir string) ([]int, []int) {
			backuptest.BackupAll(t, k.e, versions[:n-1])
			k.recipes.tear = n - 1 // the departing recipe's patch
			if _, err := k.e.Backup(context.Background(), bytes.NewReader(versions[n-1])); err == nil {
				t.Fatalf("backup v%d succeeded with its departing recipe's write torn", n)
			}
			k.recipes.tear = 0
			return []int{n - 1}, append(upTo(n-2), n)
		}},
		{"delete", func(t *testing.T, k *keptRun, dir string) ([]int, []int) {
			backuptest.BackupAll(t, k.e, versions)
			sweep(t, k, false)
			if _, err := k.e.Delete(1); err != nil {
				t.Fatal(err)
			}
			return []int{1, 2}, upTo(n)[1:]
		}},
		{"flatten", func(t *testing.T, k *keptRun, dir string) ([]int, []int) {
			backuptest.BackupAll(t, k.e, versions)
			if err := k.e.(*core.Engine).FlattenRecipes(1); err != nil {
				t.Fatal(err)
			}
			return []int{1, 2}, upTo(n)
		}},
		{"repair", func(t *testing.T, k *keptRun, dir string) ([]int, []int) {
			backuptest.BackupAll(t, k.e, versions)
			sweep(t, k, false)
			rotRecipe(t, dir, 2)
			if _, err := k.e.Repair(); err != nil {
				t.Fatal(err)
			}
			return []int{2, 1}, nil
		}},
		{"scrub", func(t *testing.T, k *keptRun, dir string) ([]int, []int) {
			backuptest.BackupAll(t, k.e, versions)
			sweep(t, k, false)
			ids, err := k.store.IDs()
			if err != nil {
				t.Fatal(err)
			}
			rot(t, dir, ids[0])
			for {
				rep, err := k.e.(backup.Scrubber).ScrubStep(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if rep.Corrupt != "" {
					break
				}
				if rep.PassComplete {
					t.Fatalf("a scrub pass missed rotted image %d", ids[0])
				}
			}
			return []int{1, 2}, nil
		}},
	}
	for _, engine := range []string{"core", "dedup"} {
		for _, m := range mutations {
			if engine == "dedup" && (m.name == "flatten" || m.name == "scrub" || m.name == "failed-put") {
				continue // the baseline neither flattens, scrubs nor rewrites a recipe
			}
			t.Run(engine+"/"+m.name, func(t *testing.T) {
				dir := t.TempDir()
				k := &keptRun{engine: engine}
				k.reopen(t, dir)
				targets, kept := m.run(t, k, dir)
				var got []recipeRestore
				for _, v := range targets {
					got = append(got, restoreRecipes(k.e, k.store, k.recipes, v, false))
				}
				fresh, freshStore, freshRecipes := openKeptRecipes(t, engine, dir)
				for i, v := range targets {
					want := restoreRecipes(fresh, freshStore, freshRecipes, v, false)
					g := got[i]
					if fmt.Sprint(g.err) != fmt.Sprint(want.err) || !bytes.Equal(g.data, want.data) {
						t.Errorf("restore v%d: %d bytes, error %v; a freshly opened engine: %d bytes, error %v",
							v, len(g.data), g.err, len(want.data), want.err)
					}
					if g.rep.RecipesRead != want.rep.RecipesRead {
						t.Errorf("restore v%d: %d recipe reads, a freshly opened engine's %d", v, g.rep.RecipesRead, want.rep.RecipesRead)
					}
					wantReads := slices.DeleteFunc(slices.Clone(want.recipeReads), func(r int) bool { return slices.Contains(kept, r) })
					if !slices.Equal(g.recipeReads, wantReads) {
						t.Errorf("restore v%d read recipes %v from the store; a freshly opened engine %v, less kept %v",
							v, g.recipeReads, want.recipeReads, kept)
					}
				}
			})
		}
	}
}

// keptRun is one engine on a store directory, with its recording stores.
type keptRun struct {
	engine  string
	e       keptEngine
	store   *recordingStore
	recipes *recordingRecipes
}

// reopen opens k's engine anew on dir: nothing kept in memory.
func (k *keptRun) reopen(t *testing.T, dir string) {
	t.Helper()
	k.e, k.store, k.recipes = openKeptRecipes(t, k.engine, dir)
}

// TestIntegrityReadsPastKeptRecipes: a plain restore may serve a recipe
// the kept set holds, but fsck and a verifying restore read the store — a
// verifying restore also for the newer recipes its resolve follows — so a
// recipe that rotted after it was kept is still found.
func TestIntegrityReadsPastKeptRecipes(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(8, 0))
	for _, engine := range []string{"core", "dedup"} {
		t.Run(engine, func(t *testing.T) {
			dir := t.TempDir()
			e, store, recipes := openKeptRecipes(t, engine, dir)
			backuptest.BackupAll(t, e, versions)
			target := len(versions) // the newest recipe, kept since its backup wrote it
			rotRecipe(t, dir, target)
			r := restoreRecipes(e, store, recipes, target, false)
			if r.err != nil || !bytes.Equal(r.data, versions[target-1]) || len(r.recipeReads) != 0 {
				t.Fatalf("plain restore v%d: %v, recipe store reads %v; want the kept recipe's bytes and no read", target, r.err, r.recipeReads)
			}
			named := fmt.Sprintf("recipe v%d:", target)
			rep, err := e.Check()
			if err != nil || !slices.ContainsFunc(rep.Problems, func(p string) bool { return strings.HasPrefix(p, named) }) {
				t.Errorf("fsck: %v, problems %q, want one naming rotted %s", err, rep.Problems, named)
			}
			if engine != "core" {
				return // only HiDeStore restores verifying
			}
			if r := restoreRecipes(e, store, recipes, target, true); r.err == nil || !errors.Is(r.err, recipe.ErrCorrupt) {
				t.Fatalf("verifying restore of v%d: %v, want the rotted recipe's decode error", target, r.err)
			}
			// The newer recipes a verifying restore's resolve follows come
			// from the store too: rot one a plain restore just kept.
			newer := target - 2
			if r := restoreRecipes(e, store, recipes, newer, false); r.err != nil {
				t.Fatalf("plain restore v%d: %v", newer, r.err)
			}
			rotRecipe(t, dir, newer)
			if r := restoreRecipes(e, store, recipes, newer-1, true); !errors.Is(r.err, recipe.ErrCorrupt) {
				t.Errorf("verifying restore of v%d: %v, want rotted v%d's decode error", newer-1, r.err, newer)
			}
			if r := restoreRecipes(e, store, recipes, newer-1, false); r.err != nil || r.rep.RecipesRead < 2 || !bytes.Equal(r.data, versions[newer-2]) {
				t.Errorf("plain restore v%d: %v after %d recipe reads, want kept v%d followed", newer-1, r.err, r.rep.RecipesRead, newer)
			}
		})
	}
}

// TestNewestRestoreReachesNoRemote: on a remote store the newest version
// restores from memory alone — its recipe is the one the last backup
// wrote, which the driver keeps, and its chunks live in the engine's
// resident active images — so it reaches the remote for nothing. The
// older versions, restored newest → oldest right after the backups, read
// nothing from it either: the driver kept every recipe the backups wrote
// and the archival images they moved cold chunks to (this chain writes
// fewer than the set holds). Only their recipe write-backs reach it.
func TestNewestRestoreReachesNoRemote(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(8, 0))
	var sims []*backend.RemoteSim
	var reads atomic.Uint64
	plane := func() backend.Backend {
		top, sim, err := backend.NewStack(&countedReads{Backend: backend.NewMem(), n: &reads}, backend.StackOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sims = append(sims, sim)
		return top
	}
	ops := func() (n uint64) {
		for _, sim := range sims {
			n += sim.Stats().Ops
		}
		return n
	}
	e, err := core.New(core.Config{
		Store:   backend.NewContainerStore(plane(), "", false),
		Recipes: backend.NewRecipeStore(plane()),
		State:   plane(),
	})
	if err != nil {
		t.Fatal(err)
	}
	backuptest.BackupAll(t, e, versions)
	before, readsBefore := ops(), reads.Load()
	var buf bytes.Buffer
	rep, err := e.Restore(context.Background(), len(versions), &buf)
	if err != nil || !bytes.Equal(buf.Bytes(), versions[len(versions)-1]) {
		t.Fatalf("restore v%d: %v, or the bytes differ", len(versions), err)
	}
	if n := ops() - before; n != 0 || rep.RecipesRead != 1 || rep.ResidentReads != rep.Stats.ContainerReads {
		t.Errorf("restore v%d: %d remote ops, %d recipe reads, %d of %d container reads from memory; want 0, 1 and all",
			len(versions), n, rep.RecipesRead, rep.ResidentReads, rep.Stats.ContainerReads)
	}
	for v := len(versions) - 1; v >= 1; v-- {
		rep := backuptest.CheckRestoreOne(t, e, v, versions[v-1])
		if n := reads.Load() - readsBefore; n != 0 || rep.ResidentReads != rep.Stats.ContainerReads {
			t.Fatalf("sweep down to v%d: %d remote reads, %d of %d container reads from memory; want 0 and all",
				v, n, rep.ResidentReads, rep.Stats.ContainerReads)
		}
	}
}

// countedReads counts every operation on a backend that reads it: Get,
// Has and List.
type countedReads struct {
	backend.Backend
	n *atomic.Uint64
}

func (b *countedReads) Get(ctx context.Context, name string) ([]byte, error) {
	b.n.Add(1)
	return b.Backend.Get(ctx, name)
}

func (b *countedReads) Has(ctx context.Context, name string) (bool, error) {
	b.n.Add(1)
	return b.Backend.Has(ctx, name)
}

func (b *countedReads) List(ctx context.Context, prefix string) ([]string, error) {
	b.n.Add(1)
	return b.Backend.List(ctx, prefix)
}
