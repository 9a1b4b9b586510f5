package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hidestore/internal/backend"
	"hidestore/internal/backup/backuptest"
	"hidestore/internal/container"
	"hidestore/internal/fault"
	"hidestore/internal/obs"
	"hidestore/internal/recipe"
)

// staleIn counts the chunks of active container id's stored image that
// the engine no longer attributes to it.
func staleIn(t *testing.T, e *Engine, id container.ID) int {
	t.Helper()
	image, err := e.cfg.Store.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	stale := 0
	for _, f := range image.Fingerprints() {
		if e.activeByFP[f] != id {
			stale++
		}
	}
	return stale
}

// checkActiveBound asserts the write-once invariants on the active set:
// a stored active image is never smaller than the engine's view of it
// (nothing rewrote it), the in-memory container holds exactly the chunks
// activeByFP attributes to it, and stale bytes stay bounded — Σ image
// bytes ≤ Σ live ÷ MergeUtilization + one container, because the merge
// repacks every image under that utilization bar one.
func checkActiveBound(t *testing.T, e *Engine, when string) {
	t.Helper()
	var images, live float64
	for id, mem := range e.activeContainers {
		image, err := e.cfg.Store.Get(id)
		if err != nil {
			t.Fatalf("%s: active image %d: %v", when, id, err)
		}
		if image.DataSize() != mem.DataSize() {
			t.Fatalf("%s: active image %d holds %d bytes, the engine's copy %d: the image was rewritten",
				when, id, image.DataSize(), mem.DataSize())
		}
		for _, f := range mem.Fingerprints() {
			if e.activeByFP[f] != id {
				t.Fatalf("%s: active container %d holds %s, which the state places in %d",
					when, id, f.Short(), e.activeByFP[f])
			}
		}
		images += float64(image.DataSize())
		live += float64(mem.LiveSize())
	}
	for f, id := range e.activeByFP {
		if mem, ok := e.activeContainers[id]; !ok || !mem.Has(f) {
			t.Fatalf("%s: hot chunk %s missing from active container %d", when, f.Short(), id)
		}
	}
	if bound := live/e.cfg.MergeUtilization + float64(e.cfg.ContainerCapacity); images > bound {
		t.Fatalf("%s: active images hold %.0f bytes for %.0f live (bound %.0f)", when, images, live, bound)
	}
}

// TestStaleAwareTooling: after six versions the active images carry
// tombstoned chunks. A reopened engine must shed them on reload, fsck
// and a full scrub pass must stay clean, and the layout analyzer must
// still predict every restore's container reads exactly while reporting
// the engine's live view as utilization.
func TestStaleAwareTooling(t *testing.T) {
	dir := t.TempDir()
	e := newPersistentEngine(t, dir, 1)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(6, 0))
	backuptest.BackupAll(t, e, versions)
	var stale int
	for id := range e.activeContainers {
		stale += staleIn(t, e, id)
	}
	if stale == 0 {
		t.Fatal("test degenerate: no active image carries a stale chunk")
	}
	checkActiveBound(t, e, "before reopen")

	e = newPersistentEngine(t, dir, 1)
	checkActiveBound(t, e, "after reopen")
	rep, err := e.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fsck flags a healthy write-once store: %v", rep.Problems)
	}
	ctx := context.Background()
	for {
		step, err := e.ScrubStep(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if step.Corrupt != "" {
			t.Fatalf("scrub condemned healthy container %d: %s", step.Container, step.Corrupt)
		}
		if step.PassComplete {
			break
		}
	}
	for v := len(versions); v >= 1; v-- {
		lay, err := e.AnalyzeLayout(ctx, v, []string{"faa"})
		if err != nil {
			t.Fatal(err)
		}
		real := backuptest.CheckRestoreOne(t, e, v, versions[v-1])
		if lay.Policies[0].ContainerReads != real.Stats.ContainerReads {
			t.Fatalf("v%d: analysis simulated %d reads, restore measured %d",
				v, lay.Policies[0].ContainerReads, real.Stats.ContainerReads)
		}
		if v == len(versions) && lay.Utilization >= 1 {
			t.Fatalf("v%d reads images with stale chunks, yet utilization is %.3f", v, lay.Utilization)
		}
	}

	// A hot chunk missing from its image is still damage, stale
	// neighbours or not.
	for f, id := range e.activeByFP {
		image, err := e.cfg.Store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		image = image.Clone()
		if err := image.Remove(f); err != nil {
			t.Fatal(err)
		}
		if err := e.cfg.Store.Put(image); err != nil {
			t.Fatal(err)
		}
		break
	}
	rep, err = e.Check()
	if err != nil {
		t.Fatal(err)
	}
	flagged := false
	for _, p := range rep.Problems {
		flagged = flagged || strings.Contains(p, "hot chunk")
	}
	if !flagged {
		t.Fatalf("fsck missed a hot chunk absent from its image: %v", rep.Problems)
	}
}

// TestColdChunkReturnsInAnotherContainer: a chunk goes cold in active
// container A (archived; A's image keeps the stale copy) and later comes
// back as a unique chunk in container B. The state attributes it to B
// alone, so a reopened engine must drop A's copy and keep B's — and every
// version, including the one that later sends the chunk cold a second
// time out of B, must restore byte-identically.
func TestColdChunkReturnsInAnotherContainer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := make([]byte, 20<<10)
	y := make([]byte, 100<<10)
	rng.Read(x)
	rng.Read(y)
	xy := append(append([]byte(nil), x...), y...)
	versions := [][]byte{xy, y, xy, y, y}

	dir := t.TempDir()
	e := newPersistentEngine(t, dir, 1)
	backuptest.BackupAll(t, e, versions[:3])

	// Find A: an active image holding a chunk the state places in another
	// active container.
	returned := 0
	for id := range e.activeContainers {
		image, err := e.cfg.Store.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range image.Fingerprints() {
			if home, hot := e.activeByFP[f]; hot && home != id {
				returned++
			}
		}
	}
	if returned == 0 {
		t.Fatal("test degenerate: no chunk returned in a second active container")
	}

	e = newPersistentEngine(t, dir, 1)
	checkActiveBound(t, e, "after reopen")
	backuptest.CheckRestoreAll(t, e, versions[:3])
	for i, data := range versions[3:] {
		if _, err := e.Backup(context.Background(), bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		checkActiveBound(t, e, "after the post-reopen backup")
		e = newPersistentEngine(t, dir, 1)
		backuptest.CheckRestoreAll(t, e, versions[:4+i])
	}
	rep, err := e.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("store unhealthy: %v", rep.Problems)
	}
}

// countingBlobs counts the Gets and Puts that reach a backend.
type countingBlobs struct {
	backend.Backend
	gets, puts atomic.Int64
}

func (c *countingBlobs) Get(ctx context.Context, name string) ([]byte, error) {
	c.gets.Add(1)
	return c.Backend.Get(ctx, name)
}

func (c *countingBlobs) Put(ctx context.Context, name string, data []byte) error {
	c.puts.Add(1)
	return c.Backend.Put(ctx, name, data)
}

// countingRecipes counts the recipe store's calls, reads per version too.
type countingRecipes struct {
	recipe.Store
	gets, puts, lists, has atomic.Int64

	mu        sync.Mutex
	byVersion map[int]int
}

func (c *countingRecipes) Get(v int) (*recipe.Recipe, error) {
	c.gets.Add(1)
	c.mu.Lock()
	if c.byVersion == nil {
		c.byVersion = make(map[int]int)
	}
	c.byVersion[v]++
	c.mu.Unlock()
	return c.Store.Get(v)
}

func (c *countingRecipes) Put(r *recipe.Recipe) error {
	c.puts.Add(1)
	return c.Store.Put(r)
}

func (c *countingRecipes) Versions() ([]int, error) {
	c.lists.Add(1)
	return c.Store.Versions()
}

func (c *countingRecipes) Has(v int) (bool, error) {
	c.has.Add(1)
	return c.Store.Has(v)
}

// countedEngine backs up an n-version chain and returns an engine
// reopened over the same stores and state, its recipe store counted from
// here on. The reopened engine keeps nothing in memory yet, so its walks
// through the chain reach the store: the cold path.
func countedEngine(t *testing.T, n int) (*Engine, *countingRecipes, [][]byte) {
	t.Helper()
	e, _, mem := newTestEngine(t, 1)
	e.cfg.State = backend.NewMem()
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(n, 0))
	backuptest.BackupAll(t, e, versions)
	reopened, err := New(e.cfg)
	if err != nil {
		t.Fatal(err)
	}
	recipes := &countingRecipes{Store: mem}
	reopened.cfg.Recipes, reopened.restore.Recipes = recipes, recipes
	return reopened, recipes, versions
}

// TestRestoreWalksChainOnce: forward pointers that end on still-hot
// chunks stay negative by design, so "has a negative CID" cannot be the
// trigger for flattening — every restore of such a version would re-read
// all newer recipes forever. A first newest→oldest sweep may flatten;
// the second must read exactly one recipe per restore, write none, and
// reproduce the first sweep's bytes and container reads. The recipes sit
// behind a store cache, and the second sweep runs twice: with the cache
// the first one filled, when it reads none from the backend, and with a
// new, empty one, when each restore reads its own from the backend and
// nothing else.
func TestRestoreWalksChainOnce(t *testing.T) {
	e, _, _ := newTestEngine(t, 1)
	recipes := &countingBlobs{Backend: backend.NewMem()}
	mem := backend.NewRecipeStore(recipes)
	cached := func() {
		c := mem.Cached(backend.NewCache(backend.CacheBudget))
		e.cfg.Recipes, e.restore.Recipes = c, c
	}
	cached()
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(8, 0))
	backuptest.BackupAll(t, e, versions)

	reads := make(map[int]uint64)
	for v := len(versions); v >= 1; v-- {
		reads[v] = backuptest.CheckRestoreOne(t, e, v, versions[v-1]).Stats.ContainerReads
	}
	negatives := 0
	for v := 1; v <= len(versions); v++ {
		rec, err := mem.Get(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, entry := range rec.Entries {
			if entry.CID < 0 {
				negatives++
			}
		}
	}
	if negatives == 0 {
		t.Fatal("test degenerate: no forward pointer survives flattening")
	}
	for _, kept := range []bool{true, false} {
		if !kept {
			cached()
		}
		wantGets := int64(1)
		if kept {
			wantGets = 0
		}
		for v := len(versions); v >= 1; v-- {
			gets, puts := recipes.gets.Load(), recipes.puts.Load()
			rep := backuptest.CheckRestoreOne(t, e, v, versions[v-1])
			if g, p := recipes.gets.Load()-gets, recipes.puts.Load()-puts; g != wantGets || p != 0 || rep.RecipesRead != 1 {
				t.Errorf("second restore of v%d, recipes kept %t: %d recipe reads (%d from the store), %d writes; want 1 (%d) and 0",
					v, kept, rep.RecipesRead, g, p, wantGets)
			}
			if rep.Stats.ContainerReads != reads[v] {
				t.Errorf("second restore of v%d: %d container reads, the first took %d", v, rep.Stats.ContainerReads, reads[v])
			}
			if rep.RecipeUpdateDuration != 0 {
				t.Errorf("second restore of v%d reports flatten time %s", v, rep.RecipeUpdateDuration)
			}
		}
	}
	// The first walk is by need. A cold restore of the oldest of 12 reads
	// its own recipe, then each newer one that has left the window once —
	// never one still inside it, never its own again, no listing — and
	// writes back only its own.
	t.Run("oldest of 12, cold", func(t *testing.T) {
		e, recipes, versions := countedEngine(t, 12)
		rep := backuptest.CheckRestoreOne(t, e, 1, versions[0])
		if g, l, h, p := recipes.gets.Load(), recipes.lists.Load(), recipes.has.Load(), recipes.puts.Load(); g > 11 || l != 0 || h != 0 || p != 1 {
			t.Errorf("%d recipe reads, %d listings, %d existence checks, %d writes; want at most 11, 0, 0 and 1", g, l, h, p)
		}
		if rep.RecipesRead != uint64(recipes.gets.Load()) {
			t.Errorf("report counts %d recipe reads, the store saw %d", rep.RecipesRead, recipes.gets.Load())
		}
		for v, n := range recipes.byVersion {
			if n != 1 {
				t.Errorf("recipe v%d read %d times", v, n)
			}
		}
	})
	// A recipe written back is flat, so the next-older restore's pointers
	// end there: a first sweep costs at most two reads per version, not
	// the chain again for each.
	t.Run("first sweep reads 2N", func(t *testing.T) {
		e, recipes, versions := countedEngine(t, 8)
		followed := 0
		for v := len(versions); v >= 1; v-- {
			if backuptest.CheckRestoreOne(t, e, v, versions[v-1]).RecipeUpdateDuration > 0 {
				followed++
			}
		}
		if followed < 3 {
			t.Fatalf("test degenerate: only %d of 8 restores followed a forward pointer", followed)
		}
		if g, l := recipes.gets.Load(), recipes.lists.Load(); g > int64(2*len(versions)) || l != 0 {
			t.Errorf("sweep of %d versions: %d recipe reads, %d listings; want at most %d and 0", len(versions), g, l, 2*len(versions))
		}
	})
	// A write-back that fails fails the restore, and the stored recipe
	// stays as it was — to be followed again, and written back, next time.
	t.Run("failed write-back", func(t *testing.T) {
		e, recipes, versions := countedEngine(t, 8)
		// Move the recipes onto blobs behind a fault layer.
		blobs := backend.NewMem()
		stored := backend.NewRecipeStore(blobs)
		for v := 1; v <= len(versions); v++ {
			rec, err := recipes.Store.Get(v)
			if err != nil {
				t.Fatal(err)
			}
			if err := stored.Put(rec); err != nil {
				t.Fatal(err)
			}
		}
		inj := fault.NewInjector()
		recipes = &countingRecipes{Store: backend.NewRecipeStore(fault.NewBackend(blobs, inj))}
		e.cfg.Recipes, e.restore.Recipes = recipes, recipes
		before, err := stored.Get(1)
		if err != nil {
			t.Fatal(err)
		}
		inj.Arm(fault.Fail, 1)
		if _, err := e.Restore(context.Background(), 1, io.Discard); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("restore with a failing write-back returned %v", err)
		}
		after, err := stored.Get(1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(entryBytes(before.Entries), entryBytes(after.Entries)) {
			t.Fatal("a failed write-back changed the stored recipe")
		}
		inj.Arm(fault.None, 0)
		puts := recipes.puts.Load()
		if rep := backuptest.CheckRestoreOne(t, e, 1, versions[0]); rep.RecipeUpdateDuration == 0 || recipes.puts.Load() != puts+1 {
			t.Fatalf("the restore after the failure followed for %s and wrote %d recipes; want a walk and one write",
				rep.RecipeUpdateDuration, recipes.puts.Load()-puts)
		}
	})
}

// gatedRecipes holds every Get at a gate: it announces the version on
// entered, then waits for a token on release (closing release opens the
// gate for good).
type gatedRecipes struct {
	recipe.Store
	entered  chan int
	release  chan struct{}
	inflight atomic.Int64
	puts     atomic.Int64
}

func (g *gatedRecipes) Get(v int) (*recipe.Recipe, error) {
	g.inflight.Add(1)
	defer g.inflight.Add(-1)
	g.entered <- v
	<-g.release
	return g.Store.Get(v)
}

func (g *gatedRecipes) Put(r *recipe.Recipe) error {
	g.puts.Add(1)
	return g.Store.Put(r)
}

// TestResolveWaveIsConcurrentAndBounded drives a cold restore of the
// oldest of 12 versions through a gated memory recipe store, which caches
// nothing. The reads must come
// as: the version's own; the one version its pointers name; then, that one
// not being flat, a wave as wide as the read-ahead, all of it in flight
// before any read returns. Three ways out of the wave, each leaving no read
// behind when Restore returns: the chain's end, a flat recipe met with
// reads still in flight, and a cancelled context — which must surface as
// ctx.Err() with the span closed and nothing written back. Warm, on a
// store cache the backups filled, the same walk reads nothing from the
// backend.
func TestResolveWaveIsConcurrentAndBounded(t *testing.T) {
	const wide = 8 // restorecache.DefaultPrefetchDepth
	type ending struct {
		name string
		// prepare runs before the gate goes in; wave is how many reads the
		// wide wave issues in all.
		prepare func(t *testing.T, e *Engine, versions [][]byte)
		cancel  bool
		wave    int
		puts    int64
	}
	for _, end := range []ending{
		{name: "chain end", wave: 9, puts: 1}, // v3..v11
		{name: "flat recipe met", wave: wide, puts: 1, prepare: func(t *testing.T, e *Engine, versions [][]byte) {
			backuptest.CheckRestoreOne(t, e, 3, versions[2]) // v3 is flat from here on
		}},
		{name: "cancelled", wave: wide, cancel: true},
	} {
		end := end
		t.Run(end.name, func(t *testing.T) {
			e, _, mem := newTestEngine(t, 1)
			versions := backuptest.Materialize(t, backuptest.SmallWorkload(12, 0))
			backuptest.BackupAll(t, e, versions)
			if end.prepare != nil {
				end.prepare(t, e, versions)
			}
			gate := &gatedRecipes{Store: mem, entered: make(chan int, 64), release: make(chan struct{})}
			e.cfg.Recipes, e.restore.Recipes = gate, gate
			var trace bytes.Buffer
			tracer := obs.NewTracer(&trace)
			e.restore.Tracer = tracer

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			var out bytes.Buffer
			go func() {
				_, err := e.Restore(ctx, 1, &out)
				done <- err
			}()
			// expect waits for len(want) reads to reach the gate, in any order.
			expect := func(want ...int) {
				t.Helper()
				got := make([]int, len(want))
				for i := range got {
					select {
					case got[i] = <-gate.entered:
					case err := <-done:
						t.Fatalf("restore returned (%v) with recipes %v read of %v", err, got[:i], want)
					}
				}
				sort.Ints(got)
				if !slices.Equal(got, want) {
					t.Fatalf("recipes %v read, want %v", got, want)
				}
			}
			expect(1)
			gate.release <- struct{}{}
			expect(2)
			gate.release <- struct{}{}
			// Nothing has been released since: these are all in flight at once.
			expect(3, 4, 5, 6, 7, 8, 9, 10)
			if n := gate.inflight.Load(); n != wide {
				t.Fatalf("%d recipe reads in flight, want %d", n, wide)
			}
			if end.cancel {
				cancel()
			}
			close(gate.release)
			err := <-done
			if n := gate.inflight.Load(); n != 0 {
				t.Fatalf("Restore returned with %d recipe reads still in flight", n)
			}
			reads := 2 + wide
			for ; len(gate.entered) > 0; reads++ {
				<-gate.entered
			}
			if reads != 2+end.wave {
				t.Errorf("%d recipe reads in all, want %d", reads, 2+end.wave)
			}
			if p := gate.puts.Load(); p != end.puts {
				t.Errorf("%d recipes written back, want %d", p, end.puts)
			}
			if tracer.OpenSpans() != 0 {
				t.Errorf("%d spans left open", tracer.OpenSpans())
			}
			switch {
			case end.cancel:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled restore returned %v", err)
				}
			case err != nil:
				t.Fatal(err)
			case !bytes.Equal(out.Bytes(), versions[0]):
				t.Fatal("restored bytes differ")
			}
		})
	}
	t.Run("warm", func(t *testing.T) {
		e, _, _ := newTestEngine(t, 1)
		blobs := &countingBlobs{Backend: backend.NewMem()}
		cached := backend.NewRecipeStore(blobs).Cached(backend.NewCache(backend.CacheBudget))
		e.cfg.Recipes, e.restore.Recipes = cached, cached
		versions := backuptest.Materialize(t, backuptest.SmallWorkload(12, 0))
		backuptest.BackupAll(t, e, versions)
		puts := blobs.puts.Load()
		rep := backuptest.CheckRestoreOne(t, e, 1, versions[0])
		if n, p := blobs.gets.Load(), blobs.puts.Load()-puts; n != 0 || rep.RecipesRead != 2+9 || p != 1 {
			t.Errorf("%d recipe reads from the backend, %d in all, %d written back; want 0, %d and 1",
				n, rep.RecipesRead, p, 2+9)
		}
	})
}
