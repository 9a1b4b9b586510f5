package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"hidestore/internal/backend"
	"hidestore/internal/backup/backuptest"
	"hidestore/internal/fp"
	"hidestore/internal/recipe"
)

// referenceFlatten is the batch form of Algorithm 1 the engine used before
// it resolved by need, kept as the reference: walk every stored recipe from
// the newest down to floor carrying a table fp → archival CID harvested
// from the recipes already walked, replace every forward pointer the table
// knows, write changed recipes back when persist is set, and return the
// floor's recipe as flattened. An older recipe's mapping overwrites a newer
// one's, so when recipe u is processed the table holds, for each chunk, the
// mapping from the oldest recipe newer than u that archived it.
func referenceFlatten(recipes recipe.Store, floor int, persist bool) (*recipe.Recipe, error) {
	versions, err := recipes.Versions()
	if err != nil {
		return nil, err
	}
	table := make(map[fp.FP]int32)
	var rec *recipe.Recipe
	for i := len(versions) - 1; i >= 0 && versions[i] >= floor; i-- {
		if rec, err = recipes.Get(versions[i]); err != nil {
			return nil, err
		}
		changed := false
		for j := range rec.Entries {
			entry := &rec.Entries[j]
			if entry.CID >= 0 {
				continue
			}
			if cid, ok := table[entry.FP]; ok {
				entry.CID = cid
				changed = true
			}
		}
		if changed && persist {
			if err := recipes.Put(rec); err != nil {
				return nil, err
			}
		}
		for _, entry := range rec.Entries {
			if entry.CID > 0 {
				table[entry.FP] = entry.CID
			}
		}
	}
	return rec, nil
}

// referenceResolve is the restore-time use of referenceFlatten: entries
// resolve through the active index, and only when that leaves a forward
// pointer whose chunk has gone cold is the chain walked, read-only.
func referenceResolve(e *Engine, version int) ([]recipe.Entry, error) {
	hot := func(entries []recipe.Entry) ([]recipe.Entry, *recipe.Entry) {
		resolved := make([]recipe.Entry, len(entries))
		for i, entry := range entries {
			if entry.CID <= 0 {
				cid, ok := e.activeByFP[entry.FP]
				if !ok {
					return nil, &entries[i]
				}
				entry.CID = int32(cid)
			}
			resolved[i] = entry
		}
		return resolved, nil
	}
	rec, err := e.cfg.Recipes.Get(version)
	if err != nil {
		return nil, err
	}
	resolved, missing := hot(rec.Entries)
	if missing != nil && missing.CID < 0 {
		if rec, err = referenceFlatten(e.cfg.Recipes, version, false); err != nil {
			return nil, err
		}
		resolved, missing = hot(rec.Entries)
	}
	if missing != nil {
		return nil, fmt.Errorf("v%d: chunk %s unresolved (CID %d)", version, missing.FP.Short(), missing.CID)
	}
	return resolved, nil
}

// cloneRecipes copies every stored recipe into a fresh memory store.
func cloneRecipes(t *testing.T, from recipe.Store) *recipe.MemStore {
	t.Helper()
	versions, err := from.Versions()
	if err != nil {
		t.Fatal(err)
	}
	to := recipe.NewMemStore()
	for _, v := range versions {
		rec, err := from.Get(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := to.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

// resolveStats is what a run of checkResolveMatchesReference exercised, so
// a chain that never follows a pointer cannot pass for agreement.
type resolveStats struct {
	followed int // versions whose pointers were followed
	returned int // hot chunks given the archival CID of an earlier life
}

// checkResolveMatchesReference compares, for every stored version newest →
// oldest, the stream resolve-by-need yields with the reference walk's over
// the same store. With sweep each version is then restored for real, so
// every older version resolves over a chain the restores before it have
// patched and marked flat; the reference is taken before each restore.
func checkResolveMatchesReference(t *testing.T, e *Engine, when string, sweep bool, st *resolveStats) {
	t.Helper()
	ctx := context.Background()
	versions := e.Versions()
	for i := len(versions) - 1; i >= 0; i-- {
		v := versions[i]
		want, err := referenceResolve(e, v)
		if err != nil {
			t.Fatalf("%s: reference v%d: %v", when, v, err)
		}
		rec, err := e.cfg.Recipes.Get(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.resolve(ctx, rec, false, e.cfg.Recipes.Get)
		if err != nil {
			t.Fatalf("%s: resolve v%d: %v", when, v, err)
		}
		if !bytes.Equal(entryBytes(got.Entries), entryBytes(want)) {
			t.Fatalf("%s: v%d: resolve-by-need and the reference walk disagree", when, v)
		}
		if got.Wanted > 0 {
			st.followed++
		}
		for _, entry := range got.Entries {
			if cid, hot := e.activeByFP[entry.FP]; hot && entry.CID != int32(cid) {
				st.returned++
			}
		}
		if sweep {
			if _, err := e.Restore(ctx, v, io.Discard); err != nil {
				t.Fatalf("%s: restore v%d: %v", when, v, err)
			}
		}
	}
}

// TestResolveByNeedMatchesTableWalk: resolving by need must be the table
// walk done lazily — the same reference stream, entry for entry, for every
// stored version, cold and over a chain earlier restores have patched,
// before and after the oldest versions expire, on a fresh engine and on
// one reloaded from its state file after every backup; and FlattenRecipes
// must leave the recipes the reference walk leaves, byte for byte. The
// chains are model_test's (edits only: a chunk that leaves never returns)
// and a flapping one, whose chunks skip a version and come back — hot
// again, with an archival copy behind an older recipe's forward pointer.
func TestResolveByNeedMatchesTableWalk(t *testing.T) {
	const chainLen = 12
	type chain struct {
		name     string
		versions [][]byte
	}
	var chains []chain
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		current := make([]byte, 64<<10)
		rng.Read(current)
		c := chain{name: fmt.Sprintf("seed=%d", seed)}
		for v := 0; v < chainLen; v++ {
			c.versions = append(c.versions, current)
			current = mutate(rng, current)
		}
		chains = append(chains, c)
	}
	chains = append(chains, chain{"flap", backuptest.Materialize(t, backuptest.SmallWorkload(chainLen, 0.05))})

	for _, c := range chains {
		for _, window := range []int{1, 2} {
			for _, reopen := range []bool{false, true} {
				c, window, reopen := c, window, reopen
				t.Run(fmt.Sprintf("%s/window=%d/reopen=%t", c.name, window, reopen), func(t *testing.T) {
					t.Parallel()
					build := func() *Engine {
						e, _, _ := newTestEngine(t, window)
						if reopen {
							e.cfg.State = backend.NewMem()
						}
						for _, data := range c.versions {
							if _, err := e.Backup(context.Background(), bytes.NewReader(data)); err != nil {
								t.Fatal(err)
							}
							if reopen {
								var err error
								if e, err = New(e.cfg); err != nil {
									t.Fatal(err)
								}
							}
						}
						return e
					}
					expire := func(e *Engine) {
						for v := 1; v <= 3; v++ {
							if _, err := e.Delete(v); err != nil {
								t.Fatal(err)
							}
						}
					}
					var st resolveStats

					e := build()
					checkResolveMatchesReference(t, e, "cold", false, &st)
					expire(e)
					checkResolveMatchesReference(t, e, "cold, after delete", false, &st)
					checkResolveMatchesReference(t, e, "sweep, after delete", true, &st)
					checkResolveMatchesReference(t, e, "second sweep", true, &st)

					e = build()
					checkResolveMatchesReference(t, e, "sweep", true, &st)
					if st.followed == 0 {
						t.Fatal("test degenerate: no version had a forward pointer to follow")
					}
					if c.name == "flap" && window == 1 && st.returned == 0 {
						t.Fatal("test degenerate: no returned chunk resolved to its earlier archival copy")
					}

					for _, deleted := range []bool{false, true} {
						e = build()
						if deleted {
							expire(e)
						}
						want := cloneRecipes(t, e.cfg.Recipes)
						floor := e.Versions()[0]
						if _, err := referenceFlatten(want, floor, true); err != nil {
							t.Fatal(err)
						}
						if err := e.FlattenRecipes(floor); err != nil {
							t.Fatal(err)
						}
						for _, v := range e.Versions() {
							a, err := e.cfg.Recipes.Get(v)
							if err != nil {
								t.Fatal(err)
							}
							b, err := want.Get(v)
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(entryBytes(a.Entries), entryBytes(b.Entries)) {
								t.Fatalf("deleted=%t: FlattenRecipes left recipe v%d different from the reference walk's", deleted, v)
							}
						}
						// And a chain flattened offline resolves as the
						// reference says it does.
						checkResolveMatchesReference(t, e, "after FlattenRecipes", false, &st)
					}
				})
			}
		}
	}
}
