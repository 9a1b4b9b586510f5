package core

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
	"hidestore/internal/backup/backuptest"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
)

// The archival images a backup writes join the store cache once their
// writes have returned nil (DESIGN.md, "Store cache"). These tests hold a
// cached image to the stored one: a restore that names it equals a
// freshly opened engine's, whose cache is empty, after each way the two
// could part — a failed write, Delete of its batch, Repair and a
// damaging scrub step.

// writtenPlanes opens the three planes of one store, a directory or a
// remote simulator stack; each call opens new adapters over the same
// bytes, with a cache of their own, each backend behind wrap when it is
// set.
type writtenPlanes func(t *testing.T, wrap func(backend.Backend) backend.Backend) (container.Store, recipe.Store, backend.Backend)

func dirPlanes(dir string) writtenPlanes {
	return func(t *testing.T, wrap func(backend.Backend) backend.Backend) (container.Store, recipe.Store, backend.Backend) {
		t.Helper()
		var bs [3]backend.Backend
		for i, root := range []string{filepath.Join(dir, "containers"), filepath.Join(dir, "recipes"), dir} {
			local, err := backend.NewLocal(root)
			if err != nil {
				t.Fatal(err)
			}
			bs[i] = local
		}
		return cachedPlanes(bs, filepath.Join(dir, "containers"), wrap)
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
	return func(_ *testing.T, wrap func(backend.Backend) backend.Backend) (container.Store, recipe.Store, backend.Backend) {
		return cachedPlanes(tops, "", wrap)
	}
}

// cachedPlanes is a system's planes over bs: each behind wrap when it is
// set, the stores sharing one new cache of backend.CacheBudget.
func cachedPlanes(bs [3]backend.Backend, dir string, wrap func(backend.Backend) backend.Backend) (container.Store, recipe.Store, backend.Backend) {
	if wrap != nil {
		for i := range bs {
			bs[i] = wrap(bs[i])
		}
	}
	cache := backend.NewCache(backend.CacheBudget)
	return backend.NewContainerStore(bs[0], dir, false).Cached(cache), backend.NewRecipeStore(bs[1]).Cached(cache), bs[2]
}

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

// failingPut fails the Put of one image's blob, storing nothing, and
// hands the image it refused to refused.
type failingPut struct {
	backend.Backend
	name    string
	refused chan *container.Container
}

func (b *failingPut) Put(ctx context.Context, name string, data []byte) error {
	if name == b.name {
		c, err := container.UnmarshalBinary(data)
		if err != nil {
			return err
		}
		b.refused <- c
		return fmt.Errorf("%s: put refused", name)
	}
	return b.Backend.Put(ctx, name, data)
}

// openWritten opens an engine over planes; wrap, when set, wraps its
// backends, and merge, when set, is its MergeUtilization.
func openWritten(t *testing.T, planes writtenPlanes, wrap func(backend.Backend) backend.Backend, merge float64) *Engine {
	t.Helper()
	store, recipes, state := planes(t, wrap)
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

// restoreNaming stores rec and restores it.
func restoreNaming(t *testing.T, e *Engine, rec *recipe.Recipe) (string, []byte) {
	t.Helper()
	if err := e.cfg.Recipes.Put(rec); err != nil {
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
// joins the cache: a restore that names it reads the store, which holds
// nothing under its ID, as a freshly opened engine does.
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
			refused := make(chan *container.Container, 1)
			e := openWritten(t, planes, func(b backend.Backend) backend.Backend {
				return &failingPut{Backend: b, name: backend.ContainerName(last), refused: refused}
			}, noMerge)
			backuptest.BackupAll(t, e, versions[:2])
			if _, err := e.Backup(context.Background(), bytes.NewReader(versions[2])); err == nil {
				t.Fatalf("backup v3 succeeded with the put of archival image %d refused", last)
			}
			var image *container.Container
			select { // Backup has joined its commit plane
			case image = <-refused:
			default:
				t.Fatalf("archival image %d never reached the store", last)
			}
			rec, _ := naming(t, 1, image)
			if err := e.cfg.Recipes.Put(rec); err != nil {
				t.Fatal(err)
			}
			sameAsFresh(t, e, planes, 1)
		})
	}
}

// TestWrittenImagesDroppedByMutations: the archival images the second
// backup wrote are cached — a restore naming them reads nothing from the
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
			if err := e.cfg.Recipes.Put(rec); err != nil {
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
// than three times the archival payload the store cache holds, restoring
// the chain newest → oldest after each backup. Before and after each
// sweep, a probe restore of a recipe naming every archival image written
// so far, each once and in a run, serves from memory no more payload than
// the cache's budget. (TestKeptRecipesBoundedByBytes in internal/backup
// pins how recipes count against it.)
func TestKeptSetsStayBounded(t *testing.T) {
	const probe = 1 << 20         // a version no backup writes
	const budget = 8 * (16 << 10) // eight full images
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(10, 0))
	log := &readLog{}
	cache := backend.NewCache(budget)
	e, err := New(Config{
		Store:             backend.NewContainerStore(log.wrap(backend.NewMem()), "", false).Cached(cache),
		Recipes:           backend.NewRecipeStore(backend.NewMem()).Cached(cache),
		ContainerCapacity: 16 << 10,
		ChunkParams:       chunker.Params{Min: 1024, Avg: 2048, Max: 8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	var written []*container.Container
	archived, served := 0, 0
	check := func(when string) {
		t.Helper()
		rec, want := naming(t, probe, written...)
		if err := e.cfg.Recipes.Put(rec); err != nil {
			t.Fatal(err)
		}
		log.take()
		var buf bytes.Buffer
		rep, err := e.Restore(context.Background(), probe, &buf)
		if err != nil || !bytes.Equal(buf.Bytes(), want) || rep.Stats.ContainerReads != uint64(len(written)) {
			t.Fatalf("%s: probe restore: %v after %d reads of %d images, or the bytes differ", when, err, rep.Stats.ContainerReads, len(written))
		}
		reads := log.take()
		if err := e.cfg.Recipes.Delete(probe); err != nil {
			t.Fatal(err)
		}
		memory := 0
		for _, c := range written {
			if !slices.Contains(reads, backend.ContainerName(c.ID())) {
				memory += c.DataSize()
			}
		}
		if memory > budget {
			t.Fatalf("%s: %d bytes of %d archival images served from memory, budget %d", when, memory, len(written), budget)
		}
		served = max(served, memory)
	}
	for i, data := range versions {
		if _, err := e.Backup(context.Background(), bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		if b := e.batches[i+1-e.cfg.Window]; b != nil {
			for _, id := range b.containers {
				c, err := backend.UncachedContainers(e.cfg.Store).Get(id)
				if err != nil {
					t.Fatal(err)
				}
				written = append(written, c)
				archived += c.DataSize()
			}
		}
		check(fmt.Sprintf("backup v%d", i+1))
		for v := i + 1; v >= 1; v-- {
			backuptest.CheckRestoreOne(t, e, v, versions[v-1])
		}
		check(fmt.Sprintf("sweep after backup v%d", i+1))
	}
	if archived <= 3*budget || served == 0 {
		t.Fatalf("test degenerate: the chain wrote %d bytes of archival images, at most %d served from memory", archived, served)
	}
}

// TestActivesStayOutOfStoreCache: the active images a backup writes do
// not enter the store cache, since restores read them from the engine's
// memory. A cache with room for the chain's archival images, though not
// for those and its actives, then serves a newest → oldest sweep right
// after the backups without one archival read from the backend.
func TestActivesStayOutOfStoreCache(t *testing.T) {
	const capacity = 16 << 10
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(10, 0))
	chain := func(store container.Store) (*Engine, uint64) {
		t.Helper()
		e, err := New(Config{
			Store: store, Recipes: backend.NewRecipeStore(backend.NewMem()), ContainerCapacity: capacity,
			ChunkParams: chunker.Params{Min: 1024, Avg: 2048, Max: 8192},
		})
		if err != nil {
			t.Fatal(err)
		}
		var written uint64
		for _, data := range versions {
			rep, err := e.Backup(context.Background(), bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			written += rep.ContainerBytesWritten
		}
		return e, written
	}
	// The same chain on uncached stores gives its archival payload.
	ref, written := chain(backend.NewContainerStore(backend.NewMem(), "", false))
	archival := 0
	for _, b := range ref.batches {
		for _, id := range b.containers {
			c, err := ref.cfg.Store.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			archival += c.DataSize()
		}
	}
	budget := int64(archival + capacity)
	if archival == 0 || written <= uint64(budget)+capacity {
		t.Fatalf("test degenerate: %d bytes of archival images of %d written", archival, written)
	}
	log := &readLog{}
	e, _ := chain(backend.NewContainerStore(log.wrap(backend.NewMem()), "", false).Cached(backend.NewCache(budget)))
	log.take()
	for v := len(versions); v >= 1; v-- {
		backuptest.CheckRestoreOne(t, e, v, versions[v-1])
	}
	if reads := log.take(); len(reads) > 0 {
		t.Errorf("the sweep read %d images from the backend: %v", len(reads), reads)
	}
}

// TestRestoresReplaceWrittenImages: once the backups have written more
// archival images than a restore of v1 names, the cache holds many it does
// not need. Its reads replace those, so restoring v1 again reads from the
// backend no more than it does on a freshly opened engine, whose cache
// starts empty.
func TestRestoresReplaceWrittenImages(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(10, 0))
	planes := remotePlanes(t)
	log := &readLog{}
	// images counts the container images read since the last call.
	images := func() (n int) {
		for _, name := range log.take() {
			if strings.HasPrefix(name, "c_") {
				n++
			}
		}
		return n
	}
	// again restores v1 twice and returns the second restore's backend
	// image reads and the first one's.
	again := func(e *Engine) (second, first int) {
		t.Helper()
		images()
		backuptest.CheckRestoreOne(t, e, 1, versions[0])
		first = images()
		backuptest.CheckRestoreOne(t, e, 1, versions[0])
		return images(), first
	}
	e := openWritten(t, planes, log.wrap, 0)
	backuptest.BackupAll(t, e, versions)
	written := 0
	for _, b := range e.batches {
		written += len(b.containers)
	}
	if written <= restorecache.DefaultPrefetchDepth {
		t.Fatalf("test degenerate: the chain wrote %d archival images", written)
	}
	got, _ := again(e)
	want, first := again(openWritten(t, planes, log.wrap, 0))
	if want >= first {
		t.Fatalf("test degenerate: a fresh engine's second restore of v1 made %d backend reads, its first %d", want, first)
	}
	if got > want {
		t.Errorf("restore v1 again after the backups: %d backend reads, on a freshly opened engine %d", got, want)
	}
}

// TestWindowTwoBackupReadsNoRecipe: with a cache window of two, each
// backup patches the recipe the backup before the last one wrote. The
// store cache still holds it, so no backup reads the recipe backend.
func TestWindowTwoBackupReadsNoRecipe(t *testing.T) {
	e, _, _ := newTestEngine(t, 2)
	recipes := &countingBlobs{Backend: backend.NewMem()}
	cached := backend.NewRecipeStore(recipes).Cached(backend.NewCache(backend.CacheBudget))
	e.cfg.Recipes, e.restore.Recipes = cached, cached
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
