package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"hidestore/internal/backend"
	"hidestore/internal/backup/backuptest"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/container/containertest"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
)

// The archival images a backup writes join the restore driver's kept set
// once the fence behind them has returned (DESIGN.md, "Restore driver").
// These tests hold a written image to the stored one: a restore that names
// it equals a freshly opened engine's, which has nothing kept, after each
// way the two could part — a failed write, Delete of its batch, Repair and
// a damaging scrub step.

// writtenPlanes opens the three planes of one store, a directory or a
// remote simulator stack; each call opens new adapters over the same bytes.
type writtenPlanes func(t *testing.T) (container.Store, recipe.Store, backend.Backend)

func dirPlanes(dir string) writtenPlanes {
	return func(t *testing.T) (container.Store, recipe.Store, backend.Backend) {
		t.Helper()
		p, err := backuptest.DirPlanes(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p.Containers, p.Recipes, p.State
	}
}

func remotePlanes(t *testing.T) writtenPlanes {
	var tops [3]backend.Backend
	for i := range tops {
		top, _, err := backend.NewStack(backend.NewMem(), backend.StackOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tops[i] = top
	}
	return func(*testing.T) (container.Store, recipe.Store, backend.Backend) {
		return backend.NewContainerStore(tops[0], "", false), backend.NewRecipeStore(tops[1]), tops[2]
	}
}

// failingPut fails the Put of one image ID, storing nothing, and hands
// the image it refused to refused.
type failingPut struct {
	container.Store
	id      container.ID
	refused chan *container.Container
}

func (s *failingPut) Put(c *container.Container) error {
	if c.ID() == s.id {
		s.refused <- c
		return fmt.Errorf("container %d: put refused", c.ID())
	}
	return s.Store.Put(c)
}

// openWritten opens an engine over planes; wrap, when set, wraps its
// container store, and merge, when set, is its MergeUtilization.
func openWritten(t *testing.T, planes writtenPlanes, wrap func(container.Store) container.Store, merge float64) *Engine {
	t.Helper()
	store, recipes, state := planes(t)
	if wrap != nil {
		store = wrap(store)
	}
	e, err := New(Config{
		Store: store, Recipes: recipes, State: state, ContainerCapacity: 16 << 10,
		ChunkParams: chunker.Params{Min: 1024, Avg: 2048, Max: 8192}, MergeUtilization: merge,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// naming is a recipe of version whose entries name every chunk of images
// by its positive CID, and the bytes it restores to.
func naming(t *testing.T, version int, images ...*container.Container) (*recipe.Recipe, []byte) {
	t.Helper()
	rec := recipe.New(version)
	var want []byte
	for _, c := range images {
		for _, f := range c.Fingerprints() {
			data, err := c.View(f)
			if err != nil {
				t.Fatal(err)
			}
			rec.Append(f, uint32(len(data)), int32(c.ID()))
			want = append(want, data...)
		}
	}
	return rec, want
}

// restoreNaming stores rec through e's driver and restores it.
func restoreNaming(t *testing.T, e *Engine, rec *recipe.Recipe) (string, []byte) {
	t.Helper()
	if err := e.restore.PutRecipe(rec); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err := e.Restore(context.Background(), rec.Version, &buf)
	return fmt.Sprint(err), buf.Bytes()
}

// sameAsFresh restores the stored recipe of version on e and on an engine
// freshly opened over planes, and wants the same bytes or error — an
// error, since the image it names is not in the store.
func sameAsFresh(t *testing.T, e *Engine, planes writtenPlanes, version int) {
	t.Helper()
	var got, want bytes.Buffer
	_, gotErr := e.Restore(context.Background(), version, &got)
	_, wantErr := openWritten(t, planes, nil, 0).Restore(context.Background(), version, &want)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("restore v%d: %d bytes, error %v; a freshly opened engine: %d bytes, error %v",
			version, got.Len(), gotErr, want.Len(), wantErr)
	}
	if gotErr == nil {
		t.Errorf("restore v%d served an image the store does not hold", version)
	}
}

// TestWrittenImageKeptOnlyOnceStored fails the Put of the last archival
// image the third backup writes. With merging off, that is the last image
// the backup hands the commit plane before its second fence, so only the
// fence sees the failure. The fence fails the backup, and the image never
// joins the kept set: a restore that names it reads the store, which
// holds nothing under its ID, as a freshly opened engine does.
func TestWrittenImageKeptOnlyOnceStored(t *testing.T) {
	const noMerge = 1e-9 // no image is this sparse
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(3, 0))
	// A twin run learns the ID: IDs follow from the bytes backed up.
	twin := openWritten(t, remotePlanes(t), nil, noMerge)
	reps := backuptest.BackupAll(t, twin, versions)
	ids := twin.batches[2].containers
	if len(ids) == 0 || reps[2].MergedBytes != 0 {
		t.Fatalf("test degenerate: backup v3 wrote %d archival images and merged %d bytes after them", len(ids), reps[2].MergedBytes)
	}
	last := ids[len(ids)-1]
	for name, planes := range map[string]writtenPlanes{"dir": dirPlanes(t.TempDir()), "remote": remotePlanes(t)} {
		t.Run(name, func(t *testing.T) {
			fail := &failingPut{id: last, refused: make(chan *container.Container, 1)}
			e := openWritten(t, planes, func(s container.Store) container.Store { fail.Store = s; return fail }, noMerge)
			backuptest.BackupAll(t, e, versions[:2])
			if _, err := e.Backup(context.Background(), bytes.NewReader(versions[2])); err == nil {
				t.Fatalf("backup v3 succeeded with the put of archival image %d refused", last)
			}
			var refused *container.Container
			select { // Backup has joined its commit plane
			case refused = <-fail.refused:
			default:
				t.Fatalf("archival image %d never reached the store", last)
			}
			rec, _ := naming(t, 1, refused)
			if err := e.restore.PutRecipe(rec); err != nil {
				t.Fatal(err)
			}
			sameAsFresh(t, e, planes, 1)
		})
	}
}

// TestWrittenImagesDroppedByMutations: the archival images the second
// backup wrote are kept — a restore naming them reads nothing from the
// store, even after one rotted on disk — until Delete of their batch,
// Repair or a damaging scrub step; after each, a restore naming them
// equals a freshly opened engine's.
func TestWrittenImagesDroppedByMutations(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(2, 0))
	for _, mutation := range []string{"delete/dir", "delete/remote", "repair/dir", "scrub/dir"} {
		t.Run(mutation, func(t *testing.T) {
			dir := t.TempDir()
			planes := dirPlanes(dir)
			if mutation == "delete/remote" {
				planes = remotePlanes(t)
			}
			e := openWritten(t, planes, nil, 0)
			backuptest.BackupAll(t, e, versions)
			ids := e.batches[1].containers
			if len(ids) == 0 || len(ids) > restorecache.DefaultPrefetchDepth {
				t.Fatalf("test degenerate: backup v2 wrote %d archival images", len(ids))
			}
			var images []*container.Container
			for _, id := range ids {
				c, err := e.cfg.Store.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				images = append(images, c)
			}
			if mutation != "delete/remote" {
				rot(t, dir, ids[0])
			}
			rec, want := naming(t, 1, images...)
			if err, got := restoreNaming(t, e, rec); err != "<nil>" || !bytes.Equal(got, want) {
				t.Fatalf("restore of the written images before %s: %s, or the bytes differ", mutation, err)
			}
			switch mutation {
			case "delete/dir", "delete/remote":
				if _, err := e.Delete(1); err != nil {
					t.Fatal(err)
				}
			case "repair/dir":
				if rep, err := e.Repair(); err != nil || len(rep.Quarantined) == 0 {
					t.Fatalf("repair: %v, quarantined %v", err, rep.Quarantined)
				}
			case "scrub/dir":
				for {
					rep, err := e.ScrubStep(context.Background())
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
			}
			rec, _ = naming(t, 2, images[0])
			if err := e.restore.PutRecipe(rec); err != nil {
				t.Fatal(err)
			}
			sameAsFresh(t, e, planes, 2)
		})
	}
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

// TestKeptSetsStayBounded backs up a chain whose migrations write more
// than three times the images the kept set holds, restoring the chain
// newest → oldest after each backup. Before and after each sweep, a probe
// restore of a recipe naming every archival image written so far, each
// once and in a run, serves from memory exactly the images kept: never
// more than the bound, and the full set once the chain has written that
// many. (TestKeptRecipesBoundedByBytes in internal/backup pins the kept
// recipes' byte budget.)
func TestKeptSetsStayBounded(t *testing.T) {
	const probe = 1 << 20 // a version no backup writes
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(10, 0))
	store := container.NewMemStore()
	e, err := New(Config{
		Store: store, Recipes: recipe.NewMemStore(), ContainerCapacity: 16 << 10,
		ChunkParams: chunker.Params{Min: 1024, Avg: 2048, Max: 8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	var written []*container.Container
	check := func(when string) {
		t.Helper()
		rec, want := naming(t, probe, written...)
		if err := e.restore.PutRecipe(rec); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rep, err := e.Restore(context.Background(), probe, &buf)
		if err != nil || !bytes.Equal(buf.Bytes(), want) || rep.Stats.ContainerReads != uint64(len(written)) {
			t.Fatalf("%s: probe restore: %v after %d reads of %d images, or the bytes differ", when, err, rep.Stats.ContainerReads, len(written))
		}
		if err := e.restore.DeleteRecipe(probe); err != nil {
			t.Fatal(err)
		}
		if want := min(len(written), restorecache.DefaultPrefetchDepth); rep.ResidentReads > uint64(want) ||
			(len(written) > restorecache.DefaultPrefetchDepth && rep.ResidentReads != uint64(want)) {
			t.Fatalf("%s: %d kept images of %d written, bound %d", when, rep.ResidentReads, len(written), restorecache.DefaultPrefetchDepth)
		}
	}
	for i, data := range versions {
		if _, err := e.Backup(context.Background(), bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		if b := e.batches[i+1-e.cfg.Window]; b != nil {
			for _, id := range b.containers {
				c, err := store.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				written = append(written, c)
			}
		}
		check(fmt.Sprintf("backup v%d", i+1))
		for v := i + 1; v >= 1; v-- {
			backuptest.CheckRestoreOne(t, e, v, versions[v-1])
		}
		check(fmt.Sprintf("sweep after backup v%d", i+1))
	}
	if len(written) <= 3*restorecache.DefaultPrefetchDepth {
		t.Fatalf("test degenerate: the chain wrote %d archival images", len(written))
	}
}

// TestRestoresReplaceWrittenImages: once the backups have written more
// archival images than the kept set holds, the set is full of the newest
// of them, which a restore of v1 mostly does not name. Its store reads
// replace those, so restoring v1 again reads from the store no more than
// it does on a freshly opened engine, whose set starts empty.
func TestRestoresReplaceWrittenImages(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(10, 0))
	planes := remotePlanes(t)
	var reads *containertest.CountingStore
	counted := func(s container.Store) container.Store { reads = containertest.Counting(s); return reads }
	// again restores v1 twice and returns the second restore's store reads
	// and the first one's.
	again := func(e *Engine) (second, first uint64) {
		t.Helper()
		reads.Reset()
		backuptest.CheckRestoreOne(t, e, 1, versions[0])
		first = reads.Reads()
		reads.Reset()
		backuptest.CheckRestoreOne(t, e, 1, versions[0])
		return reads.Reads(), first
	}
	e := openWritten(t, planes, counted, 0)
	backuptest.BackupAll(t, e, versions)
	written := 0
	for _, b := range e.batches {
		written += len(b.containers)
	}
	if written <= restorecache.DefaultPrefetchDepth {
		t.Fatalf("test degenerate: the chain wrote %d archival images", written)
	}
	got, _ := again(e)
	want, first := again(openWritten(t, planes, counted, 0))
	if want >= first {
		t.Fatalf("test degenerate: a fresh engine's second restore of v1 made %d store reads, its first %d", want, first)
	}
	if got > want {
		t.Errorf("restore v1 again after the backups: %d store reads, on a freshly opened engine %d", got, want)
	}
}

// TestWindowTwoBackupReadsNoRecipe: with a cache window of two, each
// backup patches the recipe the backup before the last one wrote. The
// driver still keeps it, so no backup reads the recipe store.
func TestWindowTwoBackupReadsNoRecipe(t *testing.T) {
	e, _, mem := newTestEngine(t, 2)
	recipes := &countingRecipes{Store: mem}
	e.cfg.Recipes, e.restore.Recipes = recipes, recipes
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(6, 0))
	backuptest.BackupAll(t, e, versions)
	if g := recipes.gets.Load(); g != 0 {
		t.Errorf("%d recipe store reads over %d backups, want 0", g, len(versions))
	}
	if p := recipes.puts.Load(); p < int64(len(versions)) {
		t.Fatalf("test degenerate: %d recipe writes", p)
	}
	backuptest.CheckRestoreAll(t, e, versions)
}
