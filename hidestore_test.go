package hidestore

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hidestore/internal/obs"
	"hidestore/internal/workload"
)

func testVersions(t *testing.T, n int) [][]byte {
	t.Helper()
	g, err := workload.New(workload.Config{
		Name: "api-test", Versions: n, Files: 16, BlocksPerFile: 10,
		BlockSize: 4096, ModifyRate: 0.08, InsertRate: 0.005,
		DeleteRate: 0.003, FileChurn: 0.02, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for g.HasNext() {
		r, err := g.NextVersion()
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

func TestOpenDefaults(t *testing.T) {
	sys, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sys == nil {
		t.Fatal("nil system")
	}
}

func TestOpenBadOptions(t *testing.T) {
	if _, err := Open(Config{RestoreCache: "nope"}); err == nil {
		t.Fatal("bad restore cache should fail")
	}
	// Names of removed schemes fail like any other unknown name.
	for _, ix := range []string{"nope", "extbin"} {
		if _, err := OpenBaseline(BaselineConfig{Index: ix}); err == nil {
			t.Errorf("index %q should fail", ix)
		}
	}
	for _, rw := range []string{"nope", "cbr", "cfl", "har"} {
		if _, err := OpenBaseline(BaselineConfig{Rewriter: rw}); err == nil {
			t.Errorf("rewriter %q should fail", rw)
		}
	}
}

func TestBackupRestoreCycle(t *testing.T) {
	sys, err := Open(Config{ContainerSize: 64 << 10, MinChunk: 1024, AvgChunk: 2048, MaxChunk: 8192})
	if err != nil {
		t.Fatal(err)
	}
	versions := testVersions(t, 6)
	ctx := context.Background()
	for i, data := range versions {
		rep, err := sys.Backup(ctx, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Version != i+1 || rep.LogicalBytes != uint64(len(data)) {
			t.Fatalf("report %+v", rep)
		}
		if i > 0 && rep.DedupRatio < 0.5 {
			t.Fatalf("version %d dedup ratio %.2f too low", i+1, rep.DedupRatio)
		}
	}
	for i, want := range versions {
		var buf bytes.Buffer
		rep, err := sys.Restore(ctx, i+1, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("version %d corrupted", i+1)
		}
		if rep.BytesRestored != uint64(len(want)) || rep.SpeedFactor <= 0 {
			t.Fatalf("restore report %+v", rep)
		}
	}
	st := sys.Stats()
	if st.Versions != 6 || st.DedupRatio <= 0 || st.DiskIndexLookups != 0 || st.IndexMemoryBytes != 0 {
		t.Fatalf("stats %+v", st)
	}
	if got := sys.Versions(); len(got) != 6 {
		t.Fatalf("Versions = %v", got)
	}
}

func TestDeleteCycle(t *testing.T) {
	sys, err := Open(Config{ContainerSize: 64 << 10, MinChunk: 1024, AvgChunk: 2048, MaxChunk: 8192})
	if err != nil {
		t.Fatal(err)
	}
	versions := testVersions(t, 5)
	ctx := context.Background()
	for _, data := range versions {
		if _, err := sys.Backup(ctx, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sys.Delete(1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesReclaimed == 0 {
		t.Fatal("nothing reclaimed")
	}
	var buf bytes.Buffer
	if _, err := sys.Restore(ctx, 5, &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), versions[4]) {
		t.Fatal("latest version corrupted after delete")
	}
}

func TestFileBackedSystem(t *testing.T) {
	sys, err := Open(Config{
		Dir:           t.TempDir(),
		ContainerSize: 64 << 10, MinChunk: 1024, AvgChunk: 2048, MaxChunk: 8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	versions := testVersions(t, 3)
	ctx := context.Background()
	for _, data := range versions {
		if _, err := sys.Backup(ctx, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range versions {
		var buf bytes.Buffer
		if _, err := sys.Restore(ctx, i+1, &buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("version %d corrupted", i+1)
		}
	}
}

func TestRemoteBackendSystem(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	cfg := Config{
		Dir:           dir,
		ContainerSize: 64 << 10, MinChunk: 1024, AvgChunk: 2048, MaxChunk: 8192,
		Metrics: reg,
		Backend: BackendConfig{
			Kind:    "remote",
			Latency: 50 * time.Microsecond,
			ErrRate: 0.02, // absorbed by the retry layer
			Seed:    7,
		},
	}
	sys, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	versions := testVersions(t, 3)
	ctx := context.Background()
	for _, data := range versions {
		if _, err := sys.Backup(ctx, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	var first RestoreReport
	for i, want := range versions {
		var buf bytes.Buffer
		rep, err := sys.Restore(ctx, i+1, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("version %d corrupted through the remote stack", i+1)
		}
		if i == len(versions)-1 {
			first = rep
		}
	}
	// The §5.3 accounting identity must hold over the remote stack: the
	// registry counter mirrors the policy's Stats.ContainerReads.
	snap := reg.Snapshot()
	reads := snap.Counters["hidestore_restore_container_reads_total"].Value
	total := snap.Counters["hidestore_restore_total"].Value
	if total != 3 || reads == 0 {
		t.Fatalf("restore counters: total=%d reads=%d", total, reads)
	}

	// Reopen: state rides the backend stack. The same restore must be
	// byte-identical with identical ContainerReads.
	sys2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen through remote backend: %v", err)
	}
	var buf bytes.Buffer
	rep, err := sys2.Restore(ctx, len(versions), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), versions[len(versions)-1]) {
		t.Fatal("restore after reopen corrupted")
	}
	if rep.ContainerReads != first.ContainerReads {
		t.Fatalf("ContainerReads changed across reopen: %d vs %d",
			rep.ContainerReads, first.ContainerReads)
	}
	// Continuing the version history over the stack still works.
	if _, err := sys2.Backup(ctx, bytes.NewReader(versions[0])); err != nil {
		t.Fatalf("backup after reopen: %v", err)
	}
}

func TestRemoteBackendInMemory(t *testing.T) {
	sys, err := Open(Config{
		ContainerSize: 64 << 10, MinChunk: 1024, AvgChunk: 2048, MaxChunk: 8192,
		Backend: BackendConfig{Kind: "remote", ErrRate: 0.05, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	versions := testVersions(t, 2)
	ctx := context.Background()
	for _, data := range versions {
		if _, err := sys.Backup(ctx, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := sys.Restore(ctx, 2, &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), versions[1]) {
		t.Fatal("in-memory remote restore corrupted")
	}
}

func TestOpenUnknownBackend(t *testing.T) {
	if _, err := Open(Config{Backend: BackendConfig{Kind: "s3"}}); err == nil {
		t.Fatal("unknown backend kind should fail")
	}
}

// TestOpenRejectsBadBackendSettings: remote settings on a local store
// would be ignored, a negative latency means nothing, and an error rate
// of 1 fails every retry forever — Open refuses each, in memory and on
// a directory, for HiDeStore and baseline systems alike.
func TestOpenRejectsBadBackendSettings(t *testing.T) {
	for _, c := range []struct {
		name string
		b    BackendConfig
	}{
		{"local-latency", BackendConfig{Latency: time.Millisecond}},
		{"local-errrate", BackendConfig{Kind: "local", ErrRate: 0.1}},
		{"remote-negative-latency", BackendConfig{Kind: "remote", Latency: -time.Millisecond}},
		{"remote-negative-errrate", BackendConfig{Kind: "remote", ErrRate: -0.1}},
		{"remote-errrate-one", BackendConfig{Kind: "remote", ErrRate: 1}},
		{"remote-errrate-above-one", BackendConfig{Kind: "remote", ErrRate: 1.5}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, dir := range []string{"", t.TempDir()} {
				if _, err := Open(Config{Dir: dir, Backend: c.b}); err == nil {
					t.Errorf("Open(Dir %q, %+v) succeeded", dir, c.b)
				}
				if _, err := OpenBaseline(BaselineConfig{Config: Config{Dir: dir, Backend: c.b}}); err == nil {
					t.Errorf("OpenBaseline(Dir %q, %+v) succeeded", dir, c.b)
				}
			}
		})
	}
	// The edges of the accepted ranges still open.
	for _, b := range []BackendConfig{{}, {Kind: "local"}, {Kind: "remote"}, {Kind: "remote", Latency: time.Microsecond, ErrRate: 0.99}} {
		if _, err := Open(Config{Backend: b}); err != nil {
			t.Errorf("Open(%+v): %v", b, err)
		}
	}
}

func TestBaselineSystem(t *testing.T) {
	for _, ix := range []string{"ddfs", "sparse", "silo"} {
		sys, err := OpenBaseline(BaselineConfig{
			Config: Config{ContainerSize: 64 << 10, MinChunk: 1024, AvgChunk: 2048, MaxChunk: 8192},
			Index:  ix, Rewriter: "capping",
		})
		if err != nil {
			t.Fatal(err)
		}
		versions := testVersions(t, 4)
		ctx := context.Background()
		for _, data := range versions {
			if _, err := sys.Backup(ctx, bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		}
		for i, want := range versions {
			var buf bytes.Buffer
			if _, err := sys.Restore(ctx, i+1, &buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s: version %d corrupted", ix, i+1)
			}
		}
		// The baseline can delete any version.
		if _, err := sys.Delete(2); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNilReader(t *testing.T) {
	sys, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Backup(context.Background(), nil); err == nil {
		t.Fatal("nil reader should fail")
	}
}

func TestFlattenAndVerifyRestore(t *testing.T) {
	sys, err := Open(Config{ContainerSize: 64 << 10, MinChunk: 1024, AvgChunk: 2048, MaxChunk: 8192})
	if err != nil {
		t.Fatal(err)
	}
	versions := testVersions(t, 5)
	ctx := context.Background()
	for _, data := range versions {
		if _, err := sys.Backup(ctx, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sys.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Versions != 5 {
		t.Fatalf("Flatten report %+v", rep)
	}
	var buf bytes.Buffer
	vrep, err := sys.VerifyRestore(ctx, 3, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), versions[2]) || vrep.BytesRestored == 0 {
		t.Fatal("verified restore wrong")
	}
	// Baseline systems refuse both.
	base, err := OpenBaseline(BaselineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Flatten(); err == nil {
		t.Fatal("baseline Flatten should fail")
	}
	if _, err := base.VerifyRestore(ctx, 1, io.Discard); err == nil {
		t.Fatal("baseline VerifyRestore should fail")
	}
}

// TestCompressedSystem runs the full cycle with at-rest compression, in
// memory and on disk, and verifies the on-disk footprint does not grow
// much versus uncompressed.
func TestCompressedSystem(t *testing.T) {
	versions := testVersions(t, 4)
	ctx := context.Background()
	run := func(compress bool, dir string) uint64 {
		sys, err := Open(Config{
			Dir: dir, Compress: compress,
			ContainerSize: 64 << 10, MinChunk: 1024, AvgChunk: 2048, MaxChunk: 8192,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, data := range versions {
			if _, err := sys.Backup(ctx, bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		}
		for i, want := range versions {
			var buf bytes.Buffer
			if _, err := sys.Restore(ctx, i+1, &buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("compress=%v: version %d corrupted", compress, i+1)
			}
		}
		if dir == "" {
			return 0
		}
		var total uint64
		dirents, err := os.ReadDir(filepath.Join(dir, "containers"))
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range dirents {
			info, err := de.Info()
			if err != nil {
				t.Fatal(err)
			}
			total += uint64(info.Size())
		}
		return total
	}
	run(true, "") // in memory: the compressing adapter over a backend.Mem
	plain := run(false, t.TempDir())
	packed := run(true, t.TempDir())
	// Workload content is random (nearly incompressible), but headers and
	// any slack still shave something; at minimum it must not grow much.
	if packed > plain+plain/10 {
		t.Fatalf("compressed store uses %d bytes vs plain %d", packed, plain)
	}
}
