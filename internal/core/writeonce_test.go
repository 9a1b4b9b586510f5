package core

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"hidestore/internal/backup/backuptest"
	"hidestore/internal/container"
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

// countingRecipes counts the recipe store's reads and writes.
type countingRecipes struct {
	recipe.Store
	gets, puts atomic.Int64
}

func (c *countingRecipes) Get(v int) (*recipe.Recipe, error) {
	c.gets.Add(1)
	return c.Store.Get(v)
}

func (c *countingRecipes) Put(r *recipe.Recipe) error {
	c.puts.Add(1)
	return c.Store.Put(r)
}

// TestRestoreWalksChainOnce: forward pointers that end on still-hot
// chunks stay negative by design, so "has a negative CID" cannot be the
// trigger for flattening — every restore of such a version would re-read
// all newer recipes forever. A first newest→oldest sweep may flatten;
// the second must read exactly one recipe per restore, write none, and
// reproduce the first sweep's bytes and container reads.
func TestRestoreWalksChainOnce(t *testing.T) {
	e, _, mem := newTestEngine(t, 1)
	recipes := &countingRecipes{Store: mem}
	e.cfg.Recipes, e.restore.Recipes = recipes, recipes
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
	for v := len(versions); v >= 1; v-- {
		gets, puts := recipes.gets.Load(), recipes.puts.Load()
		rep := backuptest.CheckRestoreOne(t, e, v, versions[v-1])
		if g, p := recipes.gets.Load()-gets, recipes.puts.Load()-puts; g != 1 || p != 0 {
			t.Errorf("second restore of v%d: %d recipe reads, %d writes; want 1 and 0", v, g, p)
		}
		if rep.Stats.ContainerReads != reads[v] {
			t.Errorf("second restore of v%d: %d container reads, the first took %d", v, rep.Stats.ContainerReads, reads[v])
		}
		if rep.RecipeUpdateDuration != 0 {
			t.Errorf("second restore of v%d reports flatten time %s", v, rep.RecipeUpdateDuration)
		}
	}
}
