package backuptest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hidestore/internal/backend"
	"hidestore/internal/backup"
	"hidestore/internal/fault"
)

// CrashOpen builds an engine over dir with inj spliced into every
// storage plane (containers, recipes, and — for engines that keep one —
// the state) and commitDepth as its
// AsyncCommitDepth. It is called once per matrix cell with a fresh
// directory and once more, with an inert injector, to reopen the
// "crashed" directory; the reopen must run the engine's startup
// recovery.
type CrashOpen func(dir string, inj *fault.Injector, commitDepth int) (backup.Engine, error)

// Commit depths the drivers open engines at. The op-indexed matrix needs
// the same op sequence in every run, which only a one-wide commit plane
// gives; the randomized run takes the engines' default width.
const (
	orderedDepth = 1
	defaultDepth = 0
)

// CrashStep is one scripted operation of a crash-matrix run: a backup
// of Data, a full scrub pass when Scrub is set, or — when neither is
// set — a delete of version Delete.
type CrashStep struct {
	Data   []byte
	Delete int
	// Scrub runs online-scrubber steps until a pass completes, proving
	// the scrubber interleaves with the commit sequence without
	// disturbing it. Over healthy data a pass draws no mutating ops
	// (verification is read-only; only quarantining corrupt data
	// mutates), so the matrix's op numbering is unchanged.
	Scrub bool
}

// BackupSteps turns materialized version streams into backup steps.
func BackupSteps(versions [][]byte) []CrashStep {
	steps := make([]CrashStep, len(versions))
	for i, data := range versions {
		steps[i] = CrashStep{Data: data}
	}
	return steps
}

// CrashMatrix proves the engine's durable commit order end to end: no
// mutating-op crash point loses committed data.
//
// A probe run over a fresh directory counts the script's mutating ops
// (Put and Delete of container, recipe and state blobs all draw from one
// shared counter). Then, for each fault kind and op index, the script
// replays against a fresh directory with the fault armed at that index
// — modeling a process that dies there — and the directory is reopened
// with an inert injector, which runs startup recovery. After recovery:
//
//   - every version whose step completed before the fault must be
//     present and restore byte-identically;
//   - the step in flight at the fault is allowed either outcome (a
//     crashing client cannot know), but if its version is present it
//     too must restore byte-identically, and a version it deleted may
//     only be missing or intact — never half-deleted;
//   - no other versions may exist;
//   - the engine's integrity check must report zero problems.
//
// Every op index runs when HIDESTORE_CRASH_FULL=1 (the make crash
// target). By default a deterministic sample of indices keeps the
// regular suite fast; the sample always includes the first and last op.
//
// The engines run with a one-wide commit plane here, so op index i is the
// same commit step in the probe and in every cell; CrashRandom covers the
// default width.
func CrashMatrix(t *testing.T, open CrashOpen, steps []CrashStep, kinds []fault.Kind) {
	t.Helper()
	total, opLog := crashProbe(t, open, orderedDepth, steps)
	indices := crashIndices(total)
	for _, kind := range kinds {
		for _, i := range indices {
			t.Run(fmt.Sprintf("%s-op%03d", kind, i), func(t *testing.T) {
				crashCell(t, open, orderedDepth, steps, kind, i, opLog[i-1], false)
			})
		}
	}
}

// CrashRandom is CrashMatrix at the engines' default commit width, where
// several container writes are in flight at once and the order they draw
// op indices in differs from run to run: a crash then leaves an arbitrary
// subset of the uncommitted images behind. Each of runs cells kills the
// script at a seeded random op with a random kind and asserts CrashMatrix's
// post-reopen contract. The op count is still exact (the same ops happen,
// in another order), so the draw covers the whole script.
// HIDESTORE_CRASH_FULL=1 runs eight times as many cells.
func CrashRandom(t *testing.T, open CrashOpen, steps []CrashStep, kinds []fault.Kind, seed int64, runs int) {
	t.Helper()
	total, _ := crashProbe(t, open, defaultDepth, steps)
	if os.Getenv("HIDESTORE_CRASH_FULL") == "1" {
		runs *= 8
	}
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < runs; r++ {
		kind, i := kinds[rng.Intn(len(kinds))], 1+rng.Intn(total)
		t.Run(fmt.Sprintf("run%03d-%s-op%03d", r, kind, i), func(t *testing.T) {
			crashCell(t, open, defaultDepth, steps, kind, i, "order varies", false)
		})
	}
}

// RetryAfterFailure proves a failed operation cannot be followed by an
// acknowledged one on the same engine. The crash matrices always reopen
// after the fault; a long-lived process does not. A Backup or Delete that
// fails has already moved the engine's in-memory dedup state (fingerprint
// cache, active-container map, index commits), so a retry that succeeded
// would build a version on containers that never landed. Each cell runs
// the script to the armed fault, clears the fault and retries the failed
// step on the same engine — which must refuse, however healthy the store
// now is — then reopens and asserts CrashMatrix's contract. It covers
// every op index (sampled unless HIDESTORE_CRASH_FULL=1), each kind, and
// both the one-wide commit plane and the default width, where the op
// order varies but the op count does not.
func RetryAfterFailure(t *testing.T, open CrashOpen, steps []CrashStep, kinds []fault.Kind) {
	t.Helper()
	for _, depth := range []int{orderedDepth, defaultDepth} {
		total, _ := crashProbe(t, open, depth, steps)
		for _, kind := range kinds {
			for _, i := range crashIndices(total) {
				t.Run(fmt.Sprintf("depth%d-%s-op%03d", depth, kind, i), func(t *testing.T) {
					crashCell(t, open, depth, steps, kind, i, "retried", true)
				})
			}
		}
	}
}

// crashProbe runs the script fault-free and returns the op count and
// per-op labels.
func crashProbe(t *testing.T, open CrashOpen, depth int, steps []CrashStep) (int, []string) {
	t.Helper()
	inj := fault.NewInjector()
	e, err := open(t.TempDir(), inj, depth)
	if err != nil {
		t.Fatalf("probe: open: %v", err)
	}
	for s, step := range steps {
		if err := runStep(e, step); err != nil {
			t.Fatalf("probe: step %d: %v", s, err)
		}
	}
	total := inj.Ops()
	if total == 0 {
		t.Fatal("probe: the script performed no mutating ops; nothing to test")
	}
	return total, inj.OpLog()
}

// crashIndices picks the op indices to exercise: all of them under
// HIDESTORE_CRASH_FULL=1, otherwise a deterministic sample.
func crashIndices(total int) []int {
	if os.Getenv("HIDESTORE_CRASH_FULL") == "1" {
		all := make([]int, total)
		for i := range all {
			all[i] = i + 1
		}
		return all
	}
	const samples = 24
	stride := (total + samples - 1) / samples
	if stride < 1 {
		stride = 1
	}
	var out []int
	for i := 1; i <= total; i += stride {
		out = append(out, i)
	}
	if out[len(out)-1] != total {
		out = append(out, total)
	}
	return out
}

// crashCell is one matrix cell: crash at op index i, reopen, verify. With
// retry, the failed step is first retried fault-free on the same engine,
// which must refuse it.
func crashCell(t *testing.T, open CrashOpen, depth int, steps []CrashStep, kind fault.Kind, i int, opLabel string, retry bool) {
	t.Helper()
	dir := t.TempDir()
	inj := fault.NewInjector()
	inj.Arm(kind, i)

	// Run the script until the injected crash. Track what committed:
	// a step that returns nil completed in full before the fault.
	expect := make(map[int][]byte)
	indeterminate := -1 // version whose step was in flight at the fault
	var indeterminateData []byte
	var failed *CrashStep // the step the fault interrupted
	e, err := open(dir, inj, depth)
	if err == nil {
		ver := 0 // backups number sequentially regardless of deletes
		for _, step := range steps {
			if step.Data != nil {
				ver++
			}
			if err = runStep(e, step); err != nil {
				if step.Data != nil {
					indeterminate = ver
					indeterminateData = step.Data
				} else if step.Scrub {
					// An interrupted scrub never changes which versions
					// exist (it only quarantines corrupt containers, and
					// the matrix's data is healthy), so expectations are
					// unchanged.
				} else {
					// An interrupted delete leaves the version either
					// intact or gone; mark it so both are accepted.
					indeterminate = step.Delete
					indeterminateData = expect[step.Delete]
					delete(expect, step.Delete)
				}
				failed = &step
				break
			}
			if step.Data != nil {
				expect[ver] = step.Data
			} else {
				delete(expect, step.Delete)
			}
		}
	}
	if err == nil {
		t.Fatalf("fault %s at op %d (%s) never fired: op order changed vs probe", kind, i, opLabel)
	}
	if !inj.Tripped() {
		t.Fatalf("script failed before the armed fault at op %d (%s): %v", i, opLabel, err)
	}

	if retry && failed != nil {
		inj.Arm(fault.None, 0) // the store is healthy again; the engine's state is not
		if rerr := runStep(e, *failed); !errors.Is(rerr, backup.ErrFailed) {
			t.Errorf("retry on the same engine after %s at op %d = %v; want ErrFailed, not work acknowledged (or attempted) on top of a failed operation", kind, i, rerr)
		}
	}

	// "Reboot": reopen the directory fault-free; this runs recovery.
	e2, err := open(dir, fault.NewInjector(), depth)
	if err != nil {
		t.Fatalf("reopen after %s at op %d (%s): %v", kind, i, opLabel, err)
	}
	got := e2.Versions()
	present := make(map[int]bool, len(got))
	for _, v := range got {
		present[v] = true
		if _, ok := expect[v]; !ok && v != indeterminate {
			t.Errorf("after %s at op %d (%s): version %d exists but was never committed", kind, i, opLabel, v)
		}
	}
	for v := range expect {
		if !present[v] {
			t.Errorf("after %s at op %d (%s): committed version %d lost", kind, i, opLabel, v)
		}
	}
	if c, ok := e2.(backup.Checker); ok {
		rep, err := c.Check()
		if err != nil {
			t.Fatalf("fsck after %s at op %d (%s): %v", kind, i, opLabel, err)
		}
		for _, p := range rep.Problems {
			t.Errorf("fsck after %s at op %d (%s): %s", kind, i, opLabel, p)
		}
	}
	if t.Failed() {
		return
	}
	for v, data := range expect {
		checkCrashRestore(t, e2, v, data, kind, i, opLabel)
	}
	if indeterminate > 0 && present[indeterminate] && indeterminateData != nil {
		checkCrashRestore(t, e2, indeterminate, indeterminateData, kind, i, opLabel)
	}
}

// runStep executes one scripted operation.
func runStep(e backup.Engine, step CrashStep) error {
	if step.Data != nil {
		_, err := e.Backup(context.Background(), bytes.NewReader(step.Data))
		return err
	}
	if step.Scrub {
		s, ok := e.(backup.Scrubber)
		if !ok {
			return fmt.Errorf("crash step: engine %T does not scrub", e)
		}
		for {
			rep, err := s.ScrubStep(context.Background())
			if err != nil {
				return err
			}
			if rep.PassComplete {
				return nil
			}
		}
	}
	_, err := e.Delete(step.Delete)
	return err
}

// checkCrashRestore asserts one version restores byte-identically.
func checkCrashRestore(t *testing.T, e backup.Engine, v int, data []byte, kind fault.Kind, i int, opLabel string) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := e.Restore(context.Background(), v, &buf); err != nil {
		t.Errorf("restore v%d after %s at op %d (%s): %v", v, kind, i, opLabel, err)
		return
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Errorf("restore v%d after %s at op %d (%s): %d bytes differ from the %d backed up",
			v, kind, i, opLabel, buf.Len(), len(data))
	}
}

// Planes are an engine's three storage planes over a store directory.
type Planes struct {
	Containers *backend.ContainerStore
	Recipes    *backend.RecipeStore
	State      backend.Backend
}

// DirPlanes opens dir in the local-mode layout hidestore.Open uses —
// containers/c_<id>.ctn, recipes/r_<n>.rcp and the state blob at dir,
// each plane a backend.Local — with each Local behind a fault.Backend
// drawing from inj, so every container, recipe and state op shares one
// op counter. A nil inj leaves the planes unwrapped.
func DirPlanes(dir string, inj *fault.Injector) (Planes, error) {
	cdir := filepath.Join(dir, "containers")
	var bs [3]backend.Backend
	for i, root := range []string{cdir, filepath.Join(dir, "recipes"), dir} {
		local, err := backend.NewLocal(root)
		if err != nil {
			return Planes{}, err
		}
		bs[i] = local
		if inj != nil {
			bs[i] = fault.NewBackend(local, inj)
		}
	}
	return Planes{
		Containers: backend.NewContainerStore(bs[0], cdir, false),
		Recipes:    backend.NewRecipeStore(bs[1]),
		State:      bs[2],
	}, nil
}
