package hidestore

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// fixtureConfig is the configuration testdata/local_store was written
// with: small chunks and containers keep the committed store near 50 KB.
func fixtureConfig(dir string) Config {
	return Config{Dir: dir, MinChunk: 512, AvgChunk: 1024, MaxChunk: 4096, ContainerSize: 8 << 10}
}

// fixtureVersions regenerates the three streams testdata/local_store
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

// TestLocalStoreFixture opens a local-mode directory written by the file
// stores that preceded the backend-only storage path — containers/c_<id>.ctn,
// recipes/r_<n>.rcp and a format-2 state.hds — and proves the layout still
// reads: the three versions are listed and restore byte-identically, fsck
// is clean, and a fourth backup commits and restores.
func TestLocalStoreFixture(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "local_store"), dir)
	want := fixtureVersions()

	sys, err := Open(fixtureConfig(dir))
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
	sys2, err := Open(fixtureConfig(dir))
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
		{"remote", BackendConfig{Kind: "remote", SleepScale: -1}, filepath.Join("remote", "containers")},
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
