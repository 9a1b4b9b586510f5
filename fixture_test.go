package hidestore

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hidestore/internal/chunker"
	"hidestore/internal/core"
	"hidestore/internal/obs"
)

// fixtureConfig is the configuration testdata/local_store was written
// with (testdata/local_store_compressed adds Compress): small chunks and
// containers keep each committed store near 50 KB.
func fixtureConfig(dir string) Config {
	return Config{Dir: dir, MinChunk: 512, AvgChunk: 1024, MaxChunk: 4096, ContainerSize: 8 << 10}
}

// fixtureVersions regenerates the three streams each fixture store
// holds: 20 KiB of random bytes, then an insert, then an overwrite, a
// truncation and an append.
func fixtureVersions() [][]byte {
	rng := rand.New(rand.NewSource(20))
	fill := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	v1 := fill(20 << 10)
	v2 := append(append(append([]byte{}, v1[:6<<10]...), fill(3<<10)...), v1[6<<10:]...)
	v3 := append([]byte{}, v2[:len(v2)-5<<10]...)
	copy(v3[12<<10:], fill(2<<10))
	v3 = append(v3, fill(4<<10)...)
	return [][]byte{v1, v2, v3}
}

// copyTree copies the regular files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLocalStoreFixture opens two local-mode directories written by
// earlier code — testdata/local_store by the file stores that preceded
// the backend-only storage path, testdata/local_store_compressed with
// Compress by the store decorator that preceded the adapter's codec;
// both containers/c_<id>.ctn, recipes/r_<n>.rcp and a format-2 state.hds
// — and proves each layout still reads: the three versions are listed
// and restore byte-identically, fsck is clean, and a fourth backup
// commits and restores.
func TestLocalStoreFixture(t *testing.T) {
	for _, c := range []struct {
		store    string
		compress bool
	}{
		{"local_store", false},
		{"local_store_compressed", true},
	} {
		t.Run(c.store, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, filepath.Join("testdata", c.store), dir)
			cfg := fixtureConfig(dir)
			cfg.Compress = c.compress
			checkFixtureStore(t, cfg)
		})
	}
}

// TestForeignChunkerStoreOpens writes a store the way a system that cut
// with another chunker did — an engine cutting with Rabin on the planes
// Config.stores lays out under Dir — and runs TestLocalStoreFixture's
// checks on it through Open, which cuts with TTTD: the versions restore
// byte-identically, fsck is clean, and a fourth backup commits. The state
// file records Rabin, so that backup confirms no cut from the newest
// recipe and scans every byte; the same store written with TTTD confirms
// some.
func TestForeignChunkerStoreOpens(t *testing.T) {
	for _, c := range []struct {
		alg      chunker.Algorithm
		scansAll bool
	}{
		{chunker.Rabin, true},
		{chunker.TTTD, false},
	} {
		t.Run(c.alg.String(), func(t *testing.T) {
			cfg := fixtureConfig(t.TempDir())
			set, err := cfg.stores()
			if err != nil {
				t.Fatal(err)
			}
			e, err := core.New(core.Config{
				Chunker:           c.alg,
				ChunkParams:       cfg.chunkParams(),
				Store:             set.containers,
				Recipes:           set.recipes,
				State:             set.state,
				ContainerCapacity: cfg.ContainerSize,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, data := range fixtureVersions() {
				if _, err := e.Backup(context.Background(), bytes.NewReader(data)); err != nil {
					t.Fatal(err)
				}
			}
			reg := obs.NewRegistry()
			cfg.Metrics = reg
			checkFixtureStore(t, cfg)
			counters := reg.Snapshot().Counters
			scanned := counters["hidestore_backup_scanned_bytes_total"].Value
			logical := counters["hidestore_backup_logical_bytes_total"].Value
			if logical == 0 || (scanned >= logical) != c.scansAll {
				t.Fatalf("fourth backup scanned %v of %v logical bytes; want every byte scanned: %v", scanned, logical, c.scansAll)
			}
		})
	}
}

// checkFixtureStore runs TestLocalStoreFixture's checks on the fixture
// store cfg opens.
func checkFixtureStore(t *testing.T, cfg Config) {
	t.Helper()
	want := fixtureVersions()
	sys, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Versions(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Versions = %v, want [1 2 3]", got)
	}
	ctx := context.Background()
	restore := func(sys *System, v int, data []byte) {
		t.Helper()
		var buf bytes.Buffer
		if _, err := sys.Restore(ctx, v, &buf); err != nil {
			t.Fatalf("restore v%d: %v", v, err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("restore v%d: %d bytes differ from the %d backed up", v, buf.Len(), len(data))
		}
	}
	for i, data := range want {
		restore(sys, i+1, data)
	}
	rep, err := sys.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.Versions != 3 {
		t.Fatalf("fsck of the fixture: %d versions, problems %v", rep.Versions, rep.Problems)
	}

	v4 := append(append([]byte{}, want[2]...), want[0][:5<<10]...)
	brep, err := sys.Backup(ctx, bytes.NewReader(v4))
	if err != nil {
		t.Fatal(err)
	}
	if brep.Version != 4 {
		t.Fatalf("fourth backup got version %d", brep.Version)
	}

	// A fresh process sees all four.
	sys2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, data := range append(want, v4) {
		restore(sys2, i+1, data)
	}
	if rep, err := sys2.Fsck(); err != nil || !rep.OK() {
		t.Fatalf("fsck after the fourth backup: %v %v", rep.Problems, err)
	}
}

// TestFsckRepairReportsImagePath rots one container image on disk and
// proves FsckRepair reports the quarantined image by its path under Dir,
// where an operator can find it, in local and in remote mode alike.
func TestFsckRepairReportsImagePath(t *testing.T) {
	for _, c := range []struct {
		name    string
		backend BackendConfig
		images  string // the container directory under Dir
	}{
		{"local", BackendConfig{}, "containers"},
		{"remote", BackendConfig{Kind: "remote"}, filepath.Join("remote", "containers")},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := fixtureConfig(dir)
			cfg.Backend = c.backend
			sys, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, data := range fixtureVersions() {
				if _, err := sys.Backup(context.Background(), bytes.NewReader(data)); err != nil {
					t.Fatal(err)
				}
			}
			images, err := filepath.Glob(filepath.Join(dir, c.images, "c_*.ctn"))
			if err != nil || len(images) == 0 {
				t.Fatalf("no container images under %s: %v", c.images, err)
			}
			buf, err := os.ReadFile(images[0])
			if err != nil {
				t.Fatal(err)
			}
			buf[len(buf)/2] ^= 0xFF
			if err := os.WriteFile(images[0], buf, 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := sys.FsckRepair()
			if err != nil {
				t.Fatal(err)
			}
			want := filepath.Join(dir, c.images, "quarantine", filepath.Base(images[0]))
			if len(rep.Quarantined) != 1 || rep.Quarantined[0] != want {
				t.Fatalf("Quarantined = %v, want [%s]", rep.Quarantined, want)
			}
			if _, err := os.Stat(rep.Quarantined[0]); err != nil {
				t.Fatalf("reported quarantine path: %v", err)
			}
		})
	}
}
