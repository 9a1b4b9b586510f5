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

// The store cache (DESIGN.md, "Store cache"): a system's container and
// recipe stores keep decoded images and recipes — the ones written, and
// the ones read — and every later reader is served from memory until a
// write, delete, quarantine or failed read of the name drops it. These
// tests run both engines on a directory store through cached adapters and
// hold them to an engine freshly opened on the same directory, whose
// cache is empty; reads are recorded at the backends, below the cache.
// Restores read serially, so even a failing one makes the same reads on
// every run.

// readLog records the blob names of the Gets that succeed on the backends
// it wraps: below a store's cache, the reads the cache did not serve.
type readLog struct {
	mu    sync.Mutex
	names []string
}

// wrap returns b with every Get that succeeds logged.
func (l *readLog) wrap(b backend.Backend) backend.Backend { return &loggedReads{b, l} }

// take returns the names logged since the last take, in the order read.
func (l *readLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	names := l.names
	l.names = nil
	return names
}

type loggedReads struct {
	backend.Backend
	log *readLog
}

// Get implements backend.Backend.
func (b *loggedReads) Get(ctx context.Context, name string) ([]byte, error) {
	data, err := b.Backend.Get(ctx, name)
	if err == nil {
		b.log.mu.Lock()
		b.log.names = append(b.log.names, name)
		b.log.mu.Unlock()
	}
	return data, err
}

// cachedDirPlanes opens dir in the layout backuptest.DirPlanes does, each
// Local behind wrap, with both stores attached to one new cache of
// backend.CacheBudget, as hidestore.Open does for a directory: a fresh
// call is a freshly opened system's stores.
func cachedDirPlanes(dir string, wrap func(backend.Backend) backend.Backend) (backuptest.Planes, error) {
	var bs [3]backend.Backend
	for i, root := range []string{filepath.Join(dir, "containers"), filepath.Join(dir, "recipes"), dir} {
		local, err := backend.NewLocal(root)
		if err != nil {
			return backuptest.Planes{}, err
		}
		bs[i] = wrap(local)
	}
	cache := backend.NewCache(backend.CacheBudget)
	return backuptest.Planes{
		Containers: backend.NewContainerStore(bs[0], filepath.Join(dir, "containers"), false).Cached(cache),
		Recipes:    backend.NewRecipeStore(bs[1]).Cached(cache),
		State:      bs[2],
	}, nil
}

type keptEngine interface {
	backup.Engine
	backup.Checker
	backup.Repairer
}

// keptRun is one engine on a store directory, with the log of the reads
// that reached its backends. With tear set, a Put of that version's
// recipe leaves torn bytes under its name and fails, as a write cut short
// does.
type keptRun struct {
	engine string
	dir    string
	e      keptEngine
	store  container.Store
	log    *readLog
	tear   int
}

// tearing is a recipe plane's backend that tears the Put of k.tear.
type tearing struct {
	backend.Backend
	k *keptRun
}

// Put implements backend.Backend.
func (b *tearing) Put(ctx context.Context, name string, data []byte) error {
	if b.k.tear != 0 && name == backend.RecipeName(b.k.tear) {
		if err := os.WriteFile(filepath.Join(b.k.dir, "recipes", name), []byte("torn"), 0o644); err != nil {
			return err
		}
		return fmt.Errorf("%s: write torn", name)
	}
	return b.Backend.Put(ctx, name, data)
}

// openKept opens engine ("core" or "dedup") on the store directory dir
// with a cache of its own.
func openKept(t *testing.T, engine, dir string) *keptRun {
	t.Helper()
	k := &keptRun{engine: engine, dir: dir, log: &readLog{}}
	p, err := cachedDirPlanes(dir, func(b backend.Backend) backend.Backend {
		return &tearing{Backend: k.log.wrap(b), k: k}
	})
	if err != nil {
		t.Fatal(err)
	}
	k.store = p.Containers
	const capacity = 16 << 10 // many images per version
	params := chunker.Params{Min: 1024, Avg: 2048, Max: 8192}
	switch engine {
	case "core":
		k.e, err = core.New(core.Config{
			Store: p.Containers, Recipes: p.Recipes, State: p.State, ContainerCapacity: capacity,
			ChunkParams: params, PrefetchDepth: -1,
		})
	case "dedup":
		ix, ierr := ddfs.New(ddfs.Options{})
		if ierr != nil {
			t.Fatal(ierr)
		}
		k.e, err = dedup.New(dedup.Config{
			Index: ix, Store: p.Containers, Recipes: p.Recipes, ContainerCapacity: capacity,
			ChunkParams: params, PrefetchDepth: -1,
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// reopen opens k's engine anew on its directory: nothing cached.
func (k *keptRun) reopen(t *testing.T) {
	t.Helper()
	*k = *openKept(t, k.engine, k.dir)
}

// keptRestore is one restore's outcome: what it wrote, its error and the
// container images and recipe versions its backends served for it.
type keptRestore struct {
	data        []byte
	rep         backup.RestoreReport
	err         error
	reads       []container.ID
	recipeReads []int
}

func (k *keptRun) restore(version int, verify bool) keptRestore {
	k.log.take()
	var buf bytes.Buffer
	restore := k.e.Restore
	if verify {
		restore = k.e.(*core.Engine).VerifyRestore
	}
	rep, err := restore(context.Background(), version, &buf)
	r := keptRestore{data: buf.Bytes(), rep: rep, err: err}
	r.reads, r.recipeReads = k.reads()
	return r
}

// reads returns the container images and the recipe versions, ascending,
// the backends served since the last take.
func (k *keptRun) reads() (images []container.ID, recipes []int) {
	for _, name := range k.log.take() {
		var id container.ID
		var v int
		if _, err := fmt.Sscanf(name, "c_%d.ctn", &id); err == nil {
			images = append(images, id)
		} else if _, err := fmt.Sscanf(name, "r_%d.rcp", &v); err == nil {
			recipes = append(recipes, v)
		}
	}
	slices.Sort(recipes)
	return images, recipes
}

// sweepAndFindKept restores every stored version newest → oldest on k,
// then each again from the second oldest up, and returns the first that a
// freshly opened engine restores with a read of an image k's restore
// serves from its cache: a cached image, and a version that needs it.
func sweepAndFindKept(t *testing.T, k *keptRun, versions [][]byte) (version int, kept container.ID) {
	t.Helper()
	vs := k.e.Versions()
	for i := len(vs) - 1; i >= 0; i-- {
		if r := k.restore(vs[i], false); r.err != nil || !bytes.Equal(r.data, versions[vs[i]-1]) {
			t.Fatalf("sweep: restore v%d: %v, or the bytes differ", vs[i], r.err)
		}
	}
	fresh := openKept(t, k.engine, k.dir)
	for i := 1; i < len(vs); i++ {
		again, cold := k.restore(vs[i], false), fresh.restore(vs[i], false)
		if again.err != nil || cold.err != nil {
			t.Fatal(again.err, cold.err)
		}
		for _, id := range cold.reads {
			if !slices.Contains(again.reads, id) {
				return vs[i], id
			}
		}
	}
	t.Fatal("no image a fresh engine reads was cached")
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
// quarantining scrub step after a cached image rotted on disk, and Backup
// — leaves the next restore exactly as on a freshly opened engine: the
// same bytes or the same error, from the same container reads, resident
// ones included. Its backends serve only reads the fresh engine's serve
// too: the cache dropped or replaced every name the operation changed,
// and serves the others from memory.
func TestKeptImagesDroppedByMutations(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(8, 0))
	for _, engine := range []string{"core", "dedup"} {
		for _, mutation := range []string{"delete", "repair", "scrub", "backup"} {
			if mutation == "scrub" && engine == "dedup" {
				continue // the baseline has no scrubber
			}
			t.Run(engine+"/"+mutation, func(t *testing.T) {
				dir := t.TempDir()
				k := openKept(t, engine, dir)
				backuptest.BackupAll(t, k.e, versions[:len(versions)-1])
				target, victim := sweepAndFindKept(t, k, versions) // target > 1, so Delete(1) leaves it
				switch mutation {
				case "delete":
					if _, err := k.e.Delete(1); err != nil {
						t.Fatal(err)
					}
				case "repair":
					rot(t, dir, victim)
					rep, err := k.e.Repair()
					if err != nil || len(rep.Quarantined) != 1 {
						t.Fatalf("repair: %v, quarantined %v", err, rep.Quarantined)
					}
				case "scrub":
					rot(t, dir, victim)
					for {
						rep, err := k.e.(backup.Scrubber).ScrubStep(context.Background())
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
					if _, err := k.e.Backup(context.Background(), bytes.NewReader(versions[len(versions)-1])); err != nil {
						t.Fatal(err)
					}
				}
				got := k.restore(target, false)
				want := openKept(t, engine, dir).restore(target, false)
				if fmt.Sprint(got.err) != fmt.Sprint(want.err) || !bytes.Equal(got.data, want.data) {
					t.Errorf("restore v%d: %d bytes, error %v; a freshly opened engine: %d bytes, error %v",
						target, len(got.data), got.err, len(want.data), want.err)
				}
				if got.rep.Stats.ContainerReads != want.rep.Stats.ContainerReads || got.rep.ResidentReads != want.rep.ResidentReads ||
					slices.ContainsFunc(got.reads, func(id container.ID) bool { return !slices.Contains(want.reads, id) }) {
					t.Errorf("restore v%d: %d container reads, %d resident, backend reads %v; a freshly opened engine's %d, %d, %v",
						target, got.rep.Stats.ContainerReads, got.rep.ResidentReads, got.reads,
						want.rep.Stats.ContainerReads, want.rep.ResidentReads, want.reads)
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

// TestIntegrityReadsPastKeptImages: a plain restore may serve an image
// from the cache, but a verifying restore and fsck read the disk, so an
// image that rotted after it was cached is still found — by the first of
// them while it is cached: a verifying restore on HiDeStore, fsck on the
// baseline, which restores no other way. That damaged read drops the
// name, so the next plain restore fails on it as a freshly opened
// engine's does.
func TestIntegrityReadsPastKeptImages(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(8, 0))
	for _, engine := range []string{"core", "dedup"} {
		t.Run(engine, func(t *testing.T) {
			dir := t.TempDir()
			k := openKept(t, engine, dir)
			backuptest.BackupAll(t, k.e, versions)
			target, victim := sweepAndFindKept(t, k, versions)
			rot(t, dir, victim)
			if r := k.restore(target, false); r.err != nil || !bytes.Equal(r.data, versions[target-1]) {
				t.Fatalf("plain restore v%d from the cached image: %v, or the bytes differ", target, r.err)
			}
			named := fmt.Sprintf("container %d", victim)
			if engine == "core" {
				if r := k.restore(target, true); r.err == nil || !strings.Contains(r.err.Error(), named) {
					t.Fatalf("verifying restore of v%d: %v, want an error naming rotted %s", target, r.err, named)
				}
			}
			rep, err := k.e.Check()
			if err != nil || !slices.ContainsFunc(rep.Problems, func(p string) bool { return strings.HasPrefix(p, named+":") }) {
				t.Errorf("fsck: %v, problems %q, want one naming rotted %s", err, rep.Problems, named)
			}
			got, want := k.restore(target, false), openKept(t, engine, dir).restore(target, false)
			if got.err == nil || fmt.Sprint(got.err) != fmt.Sprint(want.err) {
				t.Errorf("plain restore v%d after the integrity readers: %v; a freshly opened engine: %v", target, got.err, want.err)
			}
		})
	}
}

// TestKeptImagesOutliveNonMutations: a restore's write-back of the recipe
// it resolved, FlattenRecipes and a healthy scrub step change no stored
// image, so the cache keeps serving what it holds across each of them.
func TestKeptImagesOutliveNonMutations(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(8, 0))
	k := openKept(t, "core", t.TempDir())
	backuptest.BackupAll(t, k.e, versions)
	k.reopen(t) // nothing cached: the first restore reads the backend
	e := k.e.(*core.Engine)
	first := k.restore(1, false)
	if first.err != nil || first.rep.RecipesRead < 2 {
		t.Fatalf("restore v1: %v after %d recipe reads, want a followed pointer and a write-back", first.err, first.rep.RecipesRead)
	}
	settled := k.restore(1, false)
	if settled.err != nil || len(settled.reads) >= len(first.reads) {
		t.Fatalf("restore v1 again: %v, %d backend reads after the write-back, %d before", settled.err, len(settled.reads), len(first.reads))
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
		if r := k.restore(1, false); r.err != nil || len(r.reads) != len(settled.reads) {
			t.Errorf("after %s: restore v1: %v, %d backend reads, %d before it", name, r.err, len(r.reads), len(settled.reads))
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

// TestKeptRecipesFollowWrites: the cache's recipes (DESIGN.md, "Store
// cache") are always the stored ones. After each operation that writes,
// deletes or may damage a stored recipe — a torn write included — the
// next restore of the versions it touched equals a freshly opened
// engine's — bytes or error, and RecipesRead — and reads from the recipe
// backend exactly what the fresh engine reads, bar the versions the cache
// should hold after that operation: every version the engine wrote or a
// restore read (these chains fit the budget), less the one a failed write
// left torn, the one Delete removed and the one Repair found rotted. A
// sweep newest → oldest right after the backups reads nothing from the
// recipe backend; on an engine reopened over the same directory it reads
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
	// one's recipe backend reads: none where the engine cached them all,
	// its own on a reopened engine.
	sweep := func(t *testing.T, k *keptRun, reopened bool) {
		t.Helper()
		vs := k.e.Versions()
		for i := len(vs) - 1; i >= 0; i-- {
			v := vs[i]
			r := k.restore(v, false)
			if r.err != nil || !bytes.Equal(r.data, versions[v-1]) {
				t.Fatalf("sweep: restore v%d: %v, or the bytes differ", v, r.err)
			}
			var want []int
			if reopened {
				want = []int{v}
			}
			if !slices.Equal(r.recipeReads, want) {
				t.Errorf("sweep: restore v%d read recipes %v from the backend, want %v", v, r.recipeReads, want)
			}
		}
	}
	type mutation struct {
		name string
		// run mutates k's engine and returns the versions to restore after
		// it and the ones the cache should then hold.
		run func(t *testing.T, k *keptRun) (targets, kept []int)
	}
	mutations := []mutation{
		{"sweep", func(t *testing.T, k *keptRun) ([]int, []int) {
			backuptest.BackupAll(t, k.e, versions)
			sweep(t, k, false)
			k.reopen(t)
			sweep(t, k, true)
			return []int{1, 2}, upTo(n)
		}},
		{"backup", func(t *testing.T, k *keptRun) ([]int, []int) {
			backuptest.BackupAll(t, k.e, versions[:n-1])
			k.log.take()
			if _, err := k.e.Backup(context.Background(), bytes.NewReader(versions[n-1])); err != nil {
				t.Fatal(err)
			}
			if _, reads := k.reads(); len(reads) != 0 {
				t.Errorf("backup v%d read recipes %v from the backend, want none", n, reads)
			}
			return []int{n, n - 1}, upTo(n)
		}},
		{"failed-put", func(t *testing.T, k *keptRun) ([]int, []int) {
			backuptest.BackupAll(t, k.e, versions[:n-1])
			k.tear = n - 1 // the departing recipe's patch
			if _, err := k.e.Backup(context.Background(), bytes.NewReader(versions[n-1])); err == nil {
				t.Fatalf("backup v%d succeeded with its departing recipe's write torn", n)
			}
			k.tear = 0
			return []int{n - 1}, append(upTo(n-2), n)
		}},
		{"delete", func(t *testing.T, k *keptRun) ([]int, []int) {
			backuptest.BackupAll(t, k.e, versions)
			sweep(t, k, false)
			if _, err := k.e.Delete(1); err != nil {
				t.Fatal(err)
			}
			return []int{1, 2}, upTo(n)[1:]
		}},
		{"flatten", func(t *testing.T, k *keptRun) ([]int, []int) {
			backuptest.BackupAll(t, k.e, versions)
			if err := k.e.(*core.Engine).FlattenRecipes(1); err != nil {
				t.Fatal(err)
			}
			return []int{1, 2}, upTo(n)
		}},
		{"repair", func(t *testing.T, k *keptRun) ([]int, []int) {
			backuptest.BackupAll(t, k.e, versions)
			sweep(t, k, false)
			rotRecipe(t, k.dir, 2)
			if _, err := k.e.Repair(); err != nil {
				t.Fatal(err)
			}
			return []int{2, 1}, slices.DeleteFunc(upTo(n), func(v int) bool { return v == 2 })
		}},
		{"scrub", func(t *testing.T, k *keptRun) ([]int, []int) {
			backuptest.BackupAll(t, k.e, versions)
			sweep(t, k, false)
			ids, err := k.store.IDs()
			if err != nil {
				t.Fatal(err)
			}
			rot(t, k.dir, ids[0])
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
			return []int{1, 2}, upTo(n)
		}},
	}
	for _, engine := range []string{"core", "dedup"} {
		for _, m := range mutations {
			if engine == "dedup" && (m.name == "flatten" || m.name == "scrub" || m.name == "failed-put") {
				continue // the baseline neither flattens, scrubs nor rewrites a recipe
			}
			t.Run(engine+"/"+m.name, func(t *testing.T) {
				k := openKept(t, engine, t.TempDir())
				targets, kept := m.run(t, k)
				var got []keptRestore
				for _, v := range targets {
					got = append(got, k.restore(v, false))
				}
				fresh := openKept(t, engine, k.dir)
				for i, v := range targets {
					want := fresh.restore(v, false)
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
						t.Errorf("restore v%d read recipes %v from the backend; a freshly opened engine %v, less cached %v",
							v, g.recipeReads, want.recipeReads, kept)
					}
				}
			})
		}
	}
}

// TestIntegrityReadsPastKeptRecipes: a plain restore may serve a recipe
// from the cache, but a verifying restore and fsck read the store — a
// verifying restore also for the newer recipes its resolve follows — so a
// recipe that rotted after it was cached is still found, by the first of
// them while it is cached. Each of their damaged reads drops the name, so
// the next plain restore that needs it fails on it as a freshly opened
// engine's does.
func TestIntegrityReadsPastKeptRecipes(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(8, 0))
	for _, engine := range []string{"core", "dedup"} {
		t.Run(engine, func(t *testing.T) {
			k := openKept(t, engine, t.TempDir())
			backuptest.BackupAll(t, k.e, versions)
			target := len(versions) // the newest recipe, cached since its backup wrote it
			rotRecipe(t, k.dir, target)
			r := k.restore(target, false)
			if r.err != nil || !bytes.Equal(r.data, versions[target-1]) || len(r.recipeReads) != 0 {
				t.Fatalf("plain restore v%d: %v, recipe backend reads %v; want the cached recipe's bytes and no read", target, r.err, r.recipeReads)
			}
			if engine == "core" {
				if r := k.restore(target, true); !errors.Is(r.err, recipe.ErrCorrupt) {
					t.Fatalf("verifying restore of v%d: %v, want the rotted recipe's decode error", target, r.err)
				}
			}
			named := fmt.Sprintf("recipe v%d:", target)
			rep, err := k.e.Check()
			if err != nil || !slices.ContainsFunc(rep.Problems, func(p string) bool { return strings.HasPrefix(p, named) }) {
				t.Errorf("fsck: %v, problems %q, want one naming rotted %s", err, rep.Problems, named)
			}
			if r := k.restore(target, false); !errors.Is(r.err, recipe.ErrCorrupt) {
				t.Errorf("plain restore v%d after the integrity readers: %v, want the rotted recipe's decode error", target, r.err)
			}
			if engine != "core" {
				return // only HiDeStore restores verifying
			}
			// The newer recipes a verifying restore's resolve follows come
			// from the store too: rot one a plain restore just read.
			newer := target - 2
			if r := k.restore(newer, false); r.err != nil {
				t.Fatalf("plain restore v%d: %v", newer, r.err)
			}
			rotRecipe(t, k.dir, newer)
			if r := k.restore(newer-1, true); !errors.Is(r.err, recipe.ErrCorrupt) {
				t.Errorf("verifying restore of v%d: %v, want rotted v%d's decode error", newer-1, r.err, newer)
			}
			got, want := k.restore(newer-1, false), openKept(t, engine, k.dir).restore(newer-1, false)
			if !errors.Is(got.err, recipe.ErrCorrupt) || fmt.Sprint(got.err) != fmt.Sprint(want.err) {
				t.Errorf("plain restore v%d after the verifying one: %v; a freshly opened engine: %v", newer-1, got.err, want.err)
			}
		})
	}
}

// TestNewestRestoreReachesNoRemote: on a remote store the newest version
// restores from memory alone — its recipe is the one the last backup
// wrote, which the store's cache holds, and its chunks live in the
// engine's resident active images — so it reaches the remote for nothing.
// The older versions, restored newest → oldest right after the backups,
// read nothing from it either: the cache holds every recipe the backups
// wrote and every image they put (this chain fits the budget). Only their
// recipe write-backs reach it.
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
	cache := backend.NewCache(backend.CacheBudget)
	e, err := core.New(core.Config{
		Store:   backend.NewContainerStore(plane(), "", false).Cached(cache),
		Recipes: backend.NewRecipeStore(plane()).Cached(cache),
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
		backuptest.CheckRestoreOne(t, e, v, versions[v-1])
		if n := reads.Load() - readsBefore; n != 0 {
			t.Fatalf("sweep down to v%d: %d remote reads, want 0", v, n)
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
