package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// TestModelRandomOperations drives the engine with randomized operation
// sequences — backup (mutated stream), restore (any live version), delete
// (oldest, when legal), flatten, integrity check — against a trivial
// model: a map from version number to its original bytes. Every restore
// must reproduce the model's bytes exactly and every check must come back
// clean, whatever the interleaving. After every step the active set must
// satisfy the write-once invariants (checkActiveBound); the reopen variant
// additionally restarts the engine from its state file after every
// backup, so each later step runs on active containers that were reloaded
// from images carrying stale chunks. Both variants run the commit plane at
// its default width (AsyncCommitDepth is left zero).
func TestModelRandomOperations(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, reopen := range []bool{false, true} {
			seed, reopen := seed, reopen
			t.Run(fmt.Sprintf("seed=%d/reopen=%t", seed, reopen), func(t *testing.T) {
				t.Parallel()
				runModel(t, seed, 120, reopen)
			})
		}
	}
}

// mutate produces the next version's bytes from the previous.
func mutate(rng *rand.Rand, prev []byte) []byte {
	out := append([]byte(nil), prev...)
	// Overwrite a few random regions with fresh bytes.
	for i := 0; i < 1+rng.Intn(3); i++ {
		if len(out) < 256 {
			break
		}
		off := rng.Intn(len(out) - 128)
		n := 64 + rng.Intn(64)
		if off+n > len(out) {
			n = len(out) - off
		}
		rng.Read(out[off : off+n])
	}
	// Occasionally insert a region (shifts content).
	if rng.Intn(2) == 0 {
		insert := make([]byte, 256+rng.Intn(1024))
		rng.Read(insert)
		off := rng.Intn(len(out) + 1)
		out = append(out[:off], append(insert, out[off:]...)...)
	}
	// Occasionally delete a region.
	if rng.Intn(3) == 0 && len(out) > 4096 {
		off := rng.Intn(len(out) - 2048)
		n := 256 + rng.Intn(1024)
		out = append(out[:off], out[off+n:]...)
	}
	return out
}

func runModel(t *testing.T, seed int64, steps int, reopen bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e, _, _ := newTestEngine(t, 1)
	if reopen {
		// Same in-memory stores, plus a state file to restart from.
		cfg := e.cfg
		cfg.StatePath = filepath.Join(t.TempDir(), "state.hds")
		var err error
		if e, err = New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()

	model := make(map[int][]byte) // live versions
	current := make([]byte, 64<<10)
	rng.Read(current)
	nextVersion := 1
	oldest := 1

	backupOne := func() {
		rep, err := e.Backup(ctx, bytes.NewReader(current))
		if err != nil {
			t.Fatalf("seed %d: backup: %v", seed, err)
		}
		if rep.Version != nextVersion {
			t.Fatalf("seed %d: version %d, want %d", seed, rep.Version, nextVersion)
		}
		model[nextVersion] = append([]byte(nil), current...)
		nextVersion++
		current = mutate(rng, current)
		if reopen {
			if e, err = New(e.cfg); err != nil {
				t.Fatalf("seed %d: reopen after v%d: %v", seed, rep.Version, err)
			}
		}
	}
	backupOne() // ensure at least one version exists

	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // backup
			backupOne()
		case op < 7: // restore a random live version
			if len(model) == 0 {
				continue
			}
			versions := e.Versions()
			v := versions[rng.Intn(len(versions))]
			var buf bytes.Buffer
			if _, err := e.Restore(ctx, v, &buf); err != nil {
				t.Fatalf("seed %d step %d: restore v%d: %v", seed, step, v, err)
			}
			if !bytes.Equal(buf.Bytes(), model[v]) {
				t.Fatalf("seed %d step %d: v%d bytes differ from model", seed, step, v)
			}
		case op < 8: // delete the oldest version when legal
			if oldest > nextVersion-1-e.cfg.Window || len(model) < 2 {
				continue
			}
			if _, err := e.Delete(oldest); err != nil {
				t.Fatalf("seed %d step %d: delete v%d: %v", seed, step, oldest, err)
			}
			delete(model, oldest)
			oldest++
		case op < 9: // flatten
			if err := e.FlattenRecipes(oldest); err != nil {
				t.Fatalf("seed %d step %d: flatten: %v", seed, step, err)
			}
		default: // integrity check
			rep, err := e.Check()
			if err != nil {
				t.Fatalf("seed %d step %d: check: %v", seed, step, err)
			}
			if !rep.OK() {
				t.Fatalf("seed %d step %d: store unhealthy: %v", seed, step, rep.Problems)
			}
		}
		checkActiveBound(t, e, fmt.Sprintf("seed %d step %d", seed, step))
	}
	// Final sweep: everything still restores and the store is healthy.
	for v, want := range model {
		var buf bytes.Buffer
		if _, err := e.Restore(ctx, v, &buf); err != nil {
			t.Fatalf("seed %d final: restore v%d: %v", seed, v, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("seed %d final: v%d differs", seed, v)
		}
	}
	rep, err := e.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("seed %d final: %v", seed, rep.Problems)
	}
}
