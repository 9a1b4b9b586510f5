package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hidestore/internal/backend"
	"hidestore/internal/backup"
	"hidestore/internal/backup/backuptest"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/fault"
	"hidestore/internal/obs"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
)

// scrubOpen mirrors crashOpen but hands back the container store's
// directory too, so tests can corrupt container images on disk by path.
func scrubOpen(t *testing.T, dir string, inj *fault.Injector) (*Engine, string) {
	t.Helper()
	p, err := backuptest.DirPlanes(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(scrubConfig(p, p.Containers))
	if err != nil {
		t.Fatal(err)
	}
	return e, filepath.Join(dir, "containers")
}

// scrubConfig is scrubOpen's engine configuration over the planes p,
// with store as the container store.
func scrubConfig(p backuptest.Planes, store container.Store) Config {
	return Config{
		Store:             store,
		Recipes:           p.Recipes,
		State:             p.State,
		ContainerCapacity: 16 << 10,
		Window:            1,
		ChunkParams:       chunker.Params{Min: 1024, Avg: 2048, Max: 8192},
		RestoreCache:      restorecache.NewFAA(1 << 20),
		Metrics:           obs.NewRegistry(),
	}
}

// imagePath is where container cid's image lives under a store directory.
func imagePath(dir string, cid container.ID) string {
	return filepath.Join(dir, backend.ContainerName(cid))
}

// scrubPass runs ScrubStep until a pass completes, returning every
// step report.
func scrubPass(t *testing.T, e *Engine) []backup.ScrubStepReport {
	t.Helper()
	var reps []backup.ScrubStepReport
	for {
		rep, err := e.ScrubStep(context.Background())
		if err != nil {
			t.Fatalf("scrub step %d: %v", len(reps), err)
		}
		reps = append(reps, rep)
		if rep.PassComplete {
			return reps
		}
	}
}

// corruptImage flips one byte in the middle of a container image —
// the same bit rot fault.CorruptRead models.
func corruptImage(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// archivalID returns a stored container that is not active (safe to
// corrupt without poisoning the next state reload).
func archivalID(t *testing.T, e *Engine) container.ID {
	t.Helper()
	stored, err := e.cfg.Store.IDs()
	if err != nil {
		t.Fatal(err)
	}
	for _, cid := range stored {
		if _, active := e.activeContainers[cid]; !active {
			return cid
		}
	}
	t.Fatal("workload produced no archival containers")
	return 0
}

// TestScrubHealthyPass scrubs a healthy store end to end: every
// container verifies, the pass completes, nothing is flagged, and the
// scrub metrics add up.
func TestScrubHealthyPass(t *testing.T) {
	e, _ := scrubOpen(t, t.TempDir(), fault.NewInjector())
	backuptest.BackupAll(t, e, backuptest.Materialize(t, backuptest.SmallWorkload(3, 0)))

	n, err := e.cfg.Store.Len()
	if err != nil {
		t.Fatal(err)
	}
	reps := scrubPass(t, e)
	if len(reps) != n {
		t.Fatalf("pass took %d steps, store has %d containers", len(reps), n)
	}
	var chunks int
	for _, rep := range reps {
		if rep.Corrupt != "" || rep.Quarantined != "" || rep.Skipped {
			t.Fatalf("healthy store produced %+v", rep)
		}
		chunks += rep.Chunks
	}
	if chunks == 0 {
		t.Fatal("pass verified zero chunks")
	}
	if d := e.Stats().Degraded; len(d) != 0 {
		t.Fatalf("healthy scrub degraded stats: %v", d)
	}
	if got := e.smx.Containers.Value(); got != uint64(n) {
		t.Fatalf("scrub containers metric = %d, want %d", got, n)
	}
	if e.smx.Passes.Value() != 1 || e.smx.Corruptions.Value() != 0 {
		t.Fatalf("passes=%d corruptions=%d after one clean pass",
			e.smx.Passes.Value(), e.smx.Corruptions.Value())
	}

	// A second pass re-snapshots and verifies everything again.
	scrubPass(t, e)
	if e.smx.Passes.Value() != 2 {
		t.Fatalf("passes = %d after two passes", e.smx.Passes.Value())
	}
}

// TestScrubQuarantinesBitRot rots one archival container image on
// disk, then proves the scrubber finds it (surviving the definitive
// re-read), quarantines the image, surfaces the damage through
// Stats().Degraded, and that the following pass is clean.
func TestScrubQuarantinesBitRot(t *testing.T) {
	e, cdir := scrubOpen(t, t.TempDir(), fault.NewInjector())
	backuptest.BackupAll(t, e, backuptest.Materialize(t, backuptest.SmallWorkload(4, 0)))
	victim := archivalID(t, e)
	corruptImage(t, imagePath(cdir, victim))

	var hit *backup.ScrubStepReport
	for _, rep := range scrubPass(t, e) {
		if rep.Corrupt != "" {
			rep := rep
			if hit != nil {
				t.Fatalf("two corrupt steps: %+v and %+v", *hit, rep)
			}
			hit = &rep
		}
	}
	if hit == nil {
		t.Fatal("scrub pass missed the rotted container")
	}
	if hit.Container != uint64(victim) {
		t.Fatalf("flagged container %d, corrupted %d", hit.Container, victim)
	}
	if want := filepath.Join(cdir, container.QuarantineDir, backend.ContainerName(victim)); hit.Quarantined != want {
		t.Fatalf("quarantine destination %q, want the image's path %q", hit.Quarantined, want)
	}
	if _, err := os.Stat(hit.Quarantined); err != nil {
		t.Fatalf("reported quarantine path: %v", err)
	}
	if e.smx.Corruptions.Value() != 1 || e.smx.Quarantined.Value() != 1 {
		t.Fatalf("corruptions=%d quarantined=%d, want 1/1",
			e.smx.Corruptions.Value(), e.smx.Quarantined.Value())
	}

	degraded := e.Stats().Degraded
	found := false
	for _, d := range degraded {
		if strings.Contains(d, "scrub: container") && strings.Contains(d, "quarantined") {
			found = true
		}
	}
	if !found {
		t.Fatalf("Stats().Degraded = %v, want a scrub damage line", degraded)
	}

	// The image is out of the store now; the next pass finds nothing.
	for _, rep := range scrubPass(t, e) {
		if rep.Corrupt != "" {
			t.Fatalf("second pass still corrupt: %+v", rep)
		}
	}
	if e.smx.Corruptions.Value() != 1 {
		t.Fatalf("second pass grew corruptions to %d", e.smx.Corruptions.Value())
	}
}

// flakyStore fails the first Get of one container and then behaves;
// the transient the scrubber's definitive re-read must absorb.
type flakyStore struct {
	container.Store
	failID container.ID
	fired  bool
}

func (s *flakyStore) Get(id container.ID) (*container.Container, error) {
	if id == s.failID && !s.fired {
		s.fired = true
		return nil, os.ErrDeadlineExceeded
	}
	return s.Store.Get(id)
}

// TestScrubAbsorbsTransientReadError proves a one-off read failure is
// not treated as corruption: the re-read verifies clean, the container
// counts as healthy, and nothing is quarantined or degraded.
func TestScrubAbsorbsTransientReadError(t *testing.T) {
	flaky := &flakyStore{Store: container.NewMemStore()}
	e, err := New(Config{
		Store:             flaky,
		Recipes:           recipe.NewMemStore(),
		ContainerCapacity: 16 << 10,
		Window:            1,
		ChunkParams:       chunker.Params{Min: 1024, Avg: 2048, Max: 8192},
		RestoreCache:      restorecache.NewFAA(1 << 20),
	})
	if err != nil {
		t.Fatal(err)
	}
	backuptest.BackupAll(t, e, backuptest.Materialize(t, backuptest.SmallWorkload(3, 0)))
	flaky.failID = archivalID(t, e)

	for _, rep := range scrubPass(t, e) {
		if rep.Corrupt != "" || rep.Skipped {
			t.Fatalf("transient read failure flagged: %+v", rep)
		}
	}
	if !flaky.fired {
		t.Fatal("the flaky Get never fired; the scrub read order changed")
	}
	if d := e.Stats().Degraded; len(d) != 0 {
		t.Fatalf("transient failure degraded stats: %v", d)
	}
}

// TestCrashMatrixScrub interleaves full scrub passes with the backup
// script and kills the run at every mutating op: the scrubber must
// ride along without disturbing the commit order (over healthy data it
// draws no mutating ops) and recovery must be unaffected.
func TestCrashMatrixScrub(t *testing.T) {
	versions := backuptest.Materialize(t, crashWorkload(3))
	steps := []backuptest.CrashStep{
		{Data: versions[0]},
		{Scrub: true},
		{Data: versions[1]},
		{Data: versions[2]},
		{Scrub: true},
	}
	backuptest.CrashMatrix(t, crashOpen, steps,
		[]fault.Kind{fault.Fail, fault.Torn, fault.NoSpace})
}

// TestScrubKilledMidQuarantine kills the process exactly at the
// quarantine's copy — the first of the scrubber's only mutating ops —
// and proves the crash is harmless: the image is still in place
// afterwards (the copy failed and the original was never removed), the
// damage is still reported, and a rebooted process's scrub finishes the
// quarantine.
func TestScrubKilledMidQuarantine(t *testing.T) {
	dir := t.TempDir()
	inj := fault.NewInjector()
	e, cdir := scrubOpen(t, dir, inj)
	backuptest.BackupAll(t, e, backuptest.Materialize(t, backuptest.SmallWorkload(4, 0)))
	victim := archivalID(t, e)
	corruptImage(t, imagePath(cdir, victim))

	// The scrubber's verification reads draw no mutating ops, so op 1
	// is the quarantine's copy, the first of its two (copy, then
	// remove the original).
	inj.Arm(fault.Fail, 1)
	var hit *backup.ScrubStepReport
	for _, rep := range scrubPass(t, e) {
		if rep.Corrupt != "" {
			rep := rep
			hit = &rep
		}
	}
	if !inj.Tripped() {
		t.Fatal("the quarantine never drew an op; kill point unreachable")
	}
	if hit == nil {
		t.Fatal("scrub missed the rotted container")
	}
	if hit.Quarantined != "" {
		t.Fatalf("quarantine reported despite the injected crash: %+v", *hit)
	}
	degraded := e.Stats().Degraded
	found := false
	for _, d := range degraded {
		if strings.Contains(d, "quarantine failed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("Stats().Degraded = %v, want a quarantine-failed line", degraded)
	}
	if _, err := os.Stat(imagePath(cdir, victim)); err != nil {
		t.Fatalf("image half-quarantined: %v", err)
	}

	// Reboot: a fresh process scrubs again and completes the move.
	e2, _ := scrubOpen(t, dir, fault.NewInjector())
	hit = nil
	for _, rep := range scrubPass(t, e2) {
		if rep.Corrupt != "" {
			rep := rep
			hit = &rep
		}
	}
	if hit == nil || hit.Quarantined == "" {
		t.Fatalf("rebooted scrub did not quarantine: %+v", hit)
	}
	if _, err := os.Stat(imagePath(cdir, victim)); !os.IsNotExist(err) {
		t.Fatalf("image still in the store after quarantine: %v", err)
	}
}
