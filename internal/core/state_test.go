package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"hidestore/internal/backup"
	"hidestore/internal/backup/backuptest"
	"hidestore/internal/chunker"
)

// newPersistentEngine builds an engine over dir's local-mode layout,
// state blob included.
func newPersistentEngine(t *testing.T, dir string, window int) *Engine {
	t.Helper()
	return newPersistentEngineWith(t, dir, window, chunker.Params{Min: 1024, Avg: 2048, Max: 8192})
}

// newPersistentEngineWith is newPersistentEngine cutting TTTD chunks
// under p.
func newPersistentEngineWith(t *testing.T, dir string, window int, p chunker.Params) *Engine {
	t.Helper()
	cfg := dirConfig(t, dir)
	cfg.ContainerCapacity = 64 << 10
	cfg.Window = window
	cfg.ChunkParams = p
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// dirConfig is a Config with only the storage planes set: dir's
// local-mode layout, state blob included.
func dirConfig(t *testing.T, dir string) Config {
	t.Helper()
	p, err := backuptest.DirPlanes(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Store: p.Containers, Recipes: p.Recipes, State: p.State}
}

// TestStateRoundTrip backs up half a version chain, "restarts" the engine
// from disk, backs up the rest, and verifies everything: dedup continues
// across the restart and every version restores.
func TestStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(8, 0))

	e1 := newPersistentEngine(t, dir, 1)
	backuptest.BackupAll(t, e1, versions[:4])

	e2 := newPersistentEngine(t, dir, 1)
	if got := e2.Versions(); len(got) != 4 {
		t.Fatalf("reopened engine sees %v versions", got)
	}
	// The next backup must continue numbering AND deduplicate against the
	// previous version backed up by the old process.
	rep, err := e2.Backup(context.Background(), bytes.NewReader(versions[4]))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Version != 5 {
		t.Fatalf("version after reopen = %d, want 5", rep.Version)
	}
	if rep.DedupRatio() < 0.5 {
		t.Fatalf("dedup ratio %.2f after reopen: fingerprint cache not restored", rep.DedupRatio())
	}
	for _, data := range versions[5:] {
		if _, err := e2.Backup(context.Background(), bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	backuptest.CheckRestoreAll(t, e2, versions)

	// Deletion batches must also survive: a third process deletes v1.
	e3 := newPersistentEngine(t, dir, 1)
	del, err := e3.Delete(1)
	if err != nil {
		t.Fatal(err)
	}
	if del.ContainersDeleted == 0 {
		t.Fatal("deletion batches lost across restart")
	}
	for v := 2; v <= 8; v++ {
		backuptest.CheckRestoreOne(t, e3, v, versions[v-1])
	}
}

// TestReopenedEngineSeedsFromLastRecipe: the successor table that lets a
// backup confirm the previous version's cuts instead of scanning lives in
// memory, so a reopened engine seeds it from the newest recipe — only
// when the state file says that recipe was cut with the engine's own
// chunker and parameters. Reopened with the same ones, the first backup
// confirms most cuts; with other parameters, or from a state file
// written before they were recorded (format 1), it scans every byte and
// the backup after it confirms again. Every version restores.
func TestReopenedEngineSeedsFromLastRecipe(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(7, 0))
	same := chunker.Params{Min: 1024, Avg: 2048, Max: 8192}
	other := chunker.Params{Min: 1024, Avg: 4096, Max: 8192}
	statePath := func(dir string) string { return filepath.Join(dir, "state.hds") }
	toFormat1 := func(t *testing.T, dir string) {
		buf, err := os.ReadFile(statePath(dir))
		if err != nil {
			t.Fatal(err)
		}
		buf = buf[:len(buf)-16]
		binary.BigEndian.PutUint16(buf[4:], 1)
		binary.BigEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[24:]))
		if err := os.WriteFile(statePath(dir), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name     string
		p        chunker.Params
		reopen   func(t *testing.T, dir string)
		confirms bool // the first backup after the reopen
	}{
		{"same params", same, nil, true},
		{"other params", other, nil, false},
		{"format 1 state", same, toFormat1, false},
	}
	scanShare := func(rep backup.BackupReport) float64 {
		return float64(rep.ScannedBytes) / float64(rep.LogicalBytes)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			reps := backuptest.BackupAll(t, newPersistentEngineWith(t, dir, 1, same), versions[:3])
			if c.reopen != nil {
				c.reopen(t, dir)
			}
			e := newPersistentEngineWith(t, dir, 1, c.p)
			for _, data := range versions[3:] {
				rep, err := e.Backup(context.Background(), bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				reps = append(reps, rep)
			}
			for i, rep := range reps {
				s := scanShare(rep)
				scans := i == 0 || i == 3 && !c.confirms
				if scans && s < 1 || !scans && s > 0.75 {
					t.Errorf("v%d: scan share %.3f (expected to scan every byte: %v)", i+1, s, scans)
				}
				t.Logf("v%d: scan share %.3f", i+1, s)
			}
			backuptest.CheckRestoreAll(t, e, versions)
		})
	}
}

func TestStateWindowMismatch(t *testing.T) {
	dir := t.TempDir()
	e := newPersistentEngine(t, dir, 1)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(2, 0))
	backuptest.BackupAll(t, e, versions)

	cfg := dirConfig(t, dir)
	cfg.Window = 2 // was 1
	if _, err := New(cfg); err == nil {
		t.Fatal("window mismatch should be rejected")
	}
}

func TestStateCorruption(t *testing.T) {
	dir := t.TempDir()
	e := newPersistentEngine(t, dir, 1)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(2, 0))
	backuptest.BackupAll(t, e, versions)

	path := filepath.Join(dir, "state.hds")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		// "torn" is the prefix a non-atomic writer's crash would leave.
		{"torn", func(b []byte) []byte { return b[:len(b)/2] }},
		// "bitflip" leaves the length intact but fails the CRC.
		{"bitflip", func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"short", func(b []byte) []byte { return b[:8] }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := os.WriteFile(path, tt.mutate(append([]byte(nil), buf...)), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := New(dirConfig(t, dir))
			if !errors.Is(err, ErrStateCorrupt) {
				t.Fatalf("corrupt state: got %v, want ErrStateCorrupt", err)
			}
		})
	}
}

func TestStateMissingFileIsFreshStart(t *testing.T) {
	dir := t.TempDir()
	e := newPersistentEngine(t, dir, 1)
	if got := e.Versions(); len(got) != 0 {
		t.Fatalf("fresh engine sees versions %v", got)
	}
}

func TestMarshalUnmarshalStateDirect(t *testing.T) {
	e, _, _ := newTestEngine(t, 1)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(5, 0))
	backuptest.BackupAll(t, e, versions)
	buf := e.marshalState()

	// A twin engine sharing the same stores can absorb the state.
	twin, err := New(Config{
		Store:             e.cfg.Store,
		Recipes:           e.cfg.Recipes,
		ContainerCapacity: e.cfg.ContainerCapacity,
		Window:            1,
		ChunkParams:       chunker.Params{Min: 1024, Avg: 2048, Max: 8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.unmarshalState(buf); err != nil {
		t.Fatal(err)
	}
	if twin.version != e.version || twin.nextCID != e.nextCID {
		t.Fatalf("counters differ: %d/%d vs %d/%d", twin.version, twin.nextCID, e.version, e.nextCID)
	}
	if len(twin.activeByFP) != len(e.activeByFP) {
		t.Fatalf("activeByFP size %d, want %d", len(twin.activeByFP), len(e.activeByFP))
	}
	if len(twin.batches) != len(e.batches) {
		t.Fatalf("batches %d, want %d", len(twin.batches), len(e.batches))
	}
	backuptest.CheckRestoreAll(t, twin, versions)
}

// TestMissingStateWithRecipesRefused: losing the state blob while recipes
// exist must be refused rather than silently restarting version numbering
// over live history.
func TestMissingStateWithRecipesRefused(t *testing.T) {
	dir := t.TempDir()
	e := newPersistentEngine(t, dir, 1)
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(2, 0))
	backuptest.BackupAll(t, e, versions)
	if err := os.Remove(filepath.Join(dir, "state.hds")); err != nil {
		t.Fatal(err)
	}
	if _, err := New(dirConfig(t, dir)); err == nil {
		t.Fatal("missing state over live recipes must be refused")
	}
}
