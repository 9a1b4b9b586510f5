package core

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"hidestore/internal/backup/backuptest"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
)

// newTestEngine builds a HiDeStore engine over in-memory stores with small
// containers so tests exercise rotation, migration and merging.
func newTestEngine(t testing.TB, window int) (*Engine, *container.MemStore, *recipe.MemStore) {
	t.Helper()
	store := container.NewMemStore()
	recipes := recipe.NewMemStore()
	e, err := New(Config{
		Store:             store,
		Recipes:           recipes,
		ContainerCapacity: 64 << 10,
		Window:            window,
		ChunkParams:       chunker.Params{Min: 1024, Avg: 2048, Max: 8192},
		RestoreCache:      restorecache.NewFAA(1 << 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, store, recipes
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing Store should fail")
	}
	if _, err := New(Config{Store: container.NewMemStore()}); err == nil {
		t.Fatal("missing Recipes should fail")
	}
	e, err := New(Config{Store: container.NewMemStore(), Recipes: recipe.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.Window != 1 || e.cfg.MergeUtilization != 0.5 {
		t.Fatalf("defaults not applied: %+v", e.cfg)
	}
}

// TestEveryChunkerRoundTrips backs a chain up under each chunking
// algorithm Config.Chunker takes — the engines the chunker ablation
// builds — restores every version byte-identically, expires the oldest
// and restores the rest again.
func TestEveryChunkerRoundTrips(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(4, 0))
	for _, alg := range []chunker.Algorithm{chunker.Fixed, chunker.Rabin, chunker.TTTD, chunker.FastCDC, chunker.AE} {
		t.Run(alg.String(), func(t *testing.T) {
			e, err := New(Config{
				Store:             container.NewMemStore(),
				Recipes:           recipe.NewMemStore(),
				ContainerCapacity: 64 << 10,
				ChunkParams:       chunker.Params{Min: 1024, Avg: 2048, Max: 8192},
				Chunker:           alg,
			})
			if err != nil {
				t.Fatal(err)
			}
			backuptest.BackupAll(t, e, versions)
			backuptest.CheckRestoreAll(t, e, versions)
			if _, err := e.Delete(1); err != nil {
				t.Fatal(err)
			}
			for v := 2; v <= len(versions); v++ {
				backuptest.CheckRestoreOne(t, e, v, versions[v-1])
			}
		})
	}
}

// TestBackupRestoreAllVersions is the core correctness test: every stored
// version restores byte-for-byte, including old versions whose chunks have
// migrated through archival containers and recipe chains.
func TestBackupRestoreAllVersions(t *testing.T) {
	e, _, _ := newTestEngine(t, 1)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(8, 0))
	backuptest.BackupAll(t, e, versions)
	backuptest.CheckRestoreAll(t, e, versions)
}

// TestBackupRestoreWindow2 exercises the macos-style two-version window
// with flapping chunks.
func TestBackupRestoreWindow2(t *testing.T) {
	e, _, _ := newTestEngine(t, 2)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(8, 0.05))
	backuptest.BackupAll(t, e, versions)
	backuptest.CheckRestoreAll(t, e, versions)
}

// TestWindow2CatchesFlappingChunks compares dedup ratios: with flapping
// chunks, window 2 must find strictly more duplicates than window 1 (the
// §4.1 macos argument for the extra hash table).
func TestWindow2CatchesFlappingChunks(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(10, 0.10))
	var stored [3]uint64
	for _, window := range []int{1, 2} {
		e, _, _ := newTestEngine(t, window)
		backuptest.BackupAll(t, e, versions)
		stored[window] = e.Stats().StoredBytes
	}
	if stored[2] >= stored[1] {
		t.Fatalf("window 2 stored %d bytes, window 1 stored %d: wider window should dedup flapping chunks",
			stored[2], stored[1])
	}
}

func TestZeroDiskLookups(t *testing.T) {
	e, _, _ := newTestEngine(t, 1)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(5, 0))
	reports := backuptest.BackupAll(t, e, versions)
	for _, rep := range reports {
		if rep.IndexStats.DiskLookups != 0 {
			t.Fatalf("version %d performed %d disk lookups; HiDeStore must do none",
				rep.Version, rep.IndexStats.DiskLookups)
		}
	}
	if e.Stats().IndexMemBytes != 0 {
		t.Fatal("HiDeStore should report zero persistent index memory")
	}
	if e.TransientCacheBytes() == 0 {
		t.Fatal("transient fingerprint cache should be non-empty")
	}
}

func TestAdjacentVersionDedup(t *testing.T) {
	e, _, _ := newTestEngine(t, 1)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(6, 0))
	reports := backuptest.BackupAll(t, e, versions)
	// Version 1 is all-unique; later versions should be mostly duplicate.
	if reports[0].DedupRatio() != 0 {
		t.Fatalf("version 1 dedup ratio %.2f, want 0", reports[0].DedupRatio())
	}
	for _, rep := range reports[1:] {
		if rep.DedupRatio() < 0.5 {
			t.Fatalf("version %d dedup ratio %.2f too low; adjacent redundancy should dominate",
				rep.Version, rep.DedupRatio())
		}
	}
}

// TestRecipeChainShapes inspects the three CID kinds across the recipe
// chain after several versions (§4.3, Figure 7).
func TestRecipeChainShapes(t *testing.T) {
	e, _, recipes := newTestEngine(t, 1)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(6, 0))
	backuptest.BackupAll(t, e, versions)
	// The newest recipe must be all zeros (everything still active).
	newest, err := recipes.Get(6)
	if err != nil {
		t.Fatal(err)
	}
	for i, entry := range newest.Entries {
		if entry.CID != 0 {
			t.Fatalf("newest recipe entry %d has CID %d, want 0", i, entry.CID)
		}
	}
	// Older recipes must contain no zeros: each entry is archival or a
	// forward pointer.
	var sawArchival, sawForward bool
	for v := 1; v <= 5; v++ {
		rec, err := recipes.Get(v)
		if err != nil {
			t.Fatal(err)
		}
		for i, entry := range rec.Entries {
			switch {
			case entry.CID == 0:
				t.Fatalf("recipe v%d entry %d still zero after leaving the window", v, i)
			case entry.CID > 0:
				sawArchival = true
			default:
				if fwd, _ := entry.Forward(); fwd <= v {
					t.Fatalf("recipe v%d entry %d forward pointer %d not newer", v, i, fwd)
				}
				sawForward = true
			}
		}
	}
	if !sawArchival || !sawForward {
		t.Fatalf("expected both archival and forward entries (archival=%v forward=%v)",
			sawArchival, sawForward)
	}
}

// TestFlattenRecipes checks Algorithm 1: after flattening, every forward
// pointer that chains to an archived chunk is replaced by its archival
// container, and restores still work.
func TestFlattenRecipes(t *testing.T) {
	e, _, recipes := newTestEngine(t, 1)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(7, 0))
	backuptest.BackupAll(t, e, versions)
	if err := e.FlattenRecipes(1); err != nil {
		t.Fatal(err)
	}
	// Any remaining negative CID must point at a chunk that is still hot
	// (resolvable via the active map).
	vs, err := recipes.Versions()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		rec, err := recipes.Get(v)
		if err != nil {
			t.Fatal(err)
		}
		for i, entry := range rec.Entries {
			if entry.CID >= 0 {
				continue
			}
			if _, hot := e.activeByFP[entry.FP]; !hot {
				t.Fatalf("recipe v%d entry %d unresolved after flatten and not active", v, i)
			}
		}
	}
	// Flattening must be idempotent and restores must still be exact.
	if err := e.FlattenRecipes(1); err != nil {
		t.Fatal(err)
	}
	backuptest.CheckRestoreAll(t, e, versions)
}

// TestDeleteOldestVersions deletes expired versions and verifies space is
// reclaimed with zero scanning and the remaining versions stay intact.
func TestDeleteOldestVersions(t *testing.T) {
	e, store, _ := newTestEngine(t, 1)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(8, 0))
	backuptest.BackupAll(t, e, versions)
	containersBefore, err := store.Len()
	if err != nil {
		t.Fatal(err)
	}
	storedBefore := e.Stats().StoredBytes

	rep, err := e.Delete(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksScanned != 0 {
		t.Fatalf("HiDeStore deletion scanned %d chunks, want 0 (§5.5)", rep.ChunksScanned)
	}
	if rep.ContainersRewritten != 0 {
		t.Fatalf("HiDeStore deletion rewrote %d containers, want 0", rep.ContainersRewritten)
	}
	if rep.ContainersDeleted == 0 || rep.BytesReclaimed == 0 {
		t.Fatalf("deletion reclaimed nothing: %+v", rep)
	}
	containersAfter, err := store.Len()
	if err != nil {
		t.Fatal(err)
	}
	if containersAfter >= containersBefore {
		t.Fatal("container count did not drop")
	}
	if e.Stats().StoredBytes >= storedBefore {
		t.Fatal("stored bytes did not drop")
	}
	// Remaining versions still restore exactly.
	for v := 2; v <= 8; v++ {
		backuptest.CheckRestoreOne(t, e, v, versions[v-1])
	}
	// Deleting out of order is refused.
	if _, err := e.Delete(5); err == nil {
		t.Fatal("non-oldest delete should fail")
	}
	// Delete the rest of the expired range.
	for v := 2; v <= 5; v++ {
		if _, err := e.Delete(v); err != nil {
			t.Fatalf("delete v%d: %v", v, err)
		}
	}
	for v := 6; v <= 8; v++ {
		backuptest.CheckRestoreOne(t, e, v, versions[v-1])
	}
}

func TestDeleteInsideWindowRefused(t *testing.T) {
	e, _, _ := newTestEngine(t, 2)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(3, 0))
	backuptest.BackupAll(t, e, versions)
	// Version 2 is within the window (3 - 2 = 1 < 2).
	if _, err := e.Delete(2); err == nil {
		t.Fatal("deleting a version inside the cache window should fail")
	}
}

// TestActiveContainerMerging drives enough churn that sparse active
// containers appear and verifies they get merged (the Figure 6 compaction).
func TestActiveContainerMerging(t *testing.T) {
	e, _, _ := newTestEngine(t, 1)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(10, 0))
	backuptest.BackupAll(t, e, versions)
	// After maintenance, no two active containers should both be sparse:
	// merging packs them together.
	sparse := 0
	for _, c := range e.activeContainers {
		if c.Utilization() < e.cfg.MergeUtilization {
			sparse++
		}
	}
	if sparse > 1 {
		t.Fatalf("%d sparse active containers remain; merging should leave at most one", sparse)
	}
	backuptest.CheckRestoreAll(t, e, versions)
}

// TestNewVersionPhysicalLocality is the paper's headline property: the
// newest version's chunks occupy (almost) only active containers, and its
// restore reads barely more containers than the optimal count.
func TestNewVersionPhysicalLocality(t *testing.T) {
	e, _, recipes := newTestEngine(t, 1)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(10, 0))
	backuptest.BackupAll(t, e, versions)

	newest := len(versions)
	rec, err := recipes.Get(newest)
	if err != nil {
		t.Fatal(err)
	}
	optimal := float64(rec.TotalBytes()) / float64(e.cfg.ContainerCapacity)

	var buf bytes.Buffer
	rep, err := e.Restore(context.Background(), newest, &buf)
	if err != nil {
		t.Fatal(err)
	}
	reads := float64(rep.Stats.ContainerReads)
	if reads > 3*optimal+2 {
		t.Fatalf("newest version needed %.0f container reads; optimal is %.1f — physical locality lost",
			reads, optimal)
	}
}

func TestRestoreUnknownVersion(t *testing.T) {
	e, _, _ := newTestEngine(t, 1)
	var buf bytes.Buffer
	if _, err := e.Restore(context.Background(), 9, &buf); err == nil {
		t.Fatal("restoring a missing version should fail")
	}
}

func TestDeleteUnknownVersion(t *testing.T) {
	e, _, _ := newTestEngine(t, 1)
	if _, err := e.Delete(1); err == nil {
		t.Fatal("deleting from an empty engine should fail")
	}
}

func TestVersionsListing(t *testing.T) {
	e, _, _ := newTestEngine(t, 1)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(3, 0))
	backuptest.BackupAll(t, e, versions)
	got := e.Versions()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Versions = %v", got)
	}
	st := e.Stats()
	if st.Versions != 3 || st.LogicalBytes == 0 || st.StoredBytes == 0 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.DedupRatio() <= 0 {
		t.Fatalf("DedupRatio = %v, want positive", st.DedupRatio())
	}
}

// TestMaintenanceTimingsReported checks the Figure 12 instrumentation.
func TestMaintenanceTimingsReported(t *testing.T) {
	e, _, _ := newTestEngine(t, 1)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(4, 0))
	reports := backuptest.BackupAll(t, e, versions)
	// From version 2 on, maintenance migrates cold chunks and patches the
	// departing recipe; durations must be recorded.
	for _, rep := range reports[1:] {
		if rep.MaintenanceDuration <= 0 {
			t.Fatalf("version %d maintenance duration not recorded", rep.Version)
		}
		if rep.MaintenanceDuration != rep.MigrateDuration+rep.RecipeUpdateDuration {
			t.Fatalf("version %d maintenance parts don't add up", rep.Version)
		}
	}
}

// TestFileBackedStores runs a full cycle against real files.
func TestFileBackedStores(t *testing.T) {
	p, err := backuptest.DirPlanes(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Store:             p.Containers,
		Recipes:           p.Recipes,
		State:             p.State,
		ContainerCapacity: 64 << 10,
		ChunkParams:       chunker.Params{Min: 1024, Avg: 2048, Max: 8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(5, 0))
	backuptest.BackupAll(t, e, versions)
	backuptest.CheckRestoreAll(t, e, versions)
	if _, err := e.Delete(1); err != nil {
		t.Fatal(err)
	}
	for v := 2; v <= 5; v++ {
		backuptest.CheckRestoreOne(t, e, v, versions[v-1])
	}
}

func TestEmptyVersion(t *testing.T) {
	e, _, _ := newTestEngine(t, 1)
	rep, err := e.Backup(context.Background(), strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chunks != 0 || rep.LogicalBytes != 0 {
		t.Fatalf("empty version report: %+v", rep)
	}
	var buf bytes.Buffer
	if _, err := e.Restore(context.Background(), 1, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatal("empty version should restore to empty bytes")
	}
}

// TestBackupSizesActiveImagesOnce: the active images a backup packs open
// at full capacity, so a unique stream is copied into them once instead of
// regrowing each image by append. Backing up 16 MiB of unique bytes
// allocates about 3.2× the stream (its slabs, the images, the index);
// regrowing the images took about 6.7×.
func TestBackupSizesActiveImagesOnce(t *testing.T) {
	const size = 16 << 20
	data := make([]byte, size)
	rand.New(rand.NewSource(37)).Read(data)
	e, err := New(Config{Store: container.NewMemStore(), Recipes: recipe.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := e.Backup(context.Background(), bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > size*7/2 {
		t.Errorf("backing up %d MiB of unique bytes allocated %.1f MB, more than 3.5× the stream", size>>20, float64(alloc)/1e6)
	} else {
		t.Logf("allocated %.1f MB", float64(alloc)/1e6)
	}
}
