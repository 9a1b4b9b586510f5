package core

import (
	"fmt"

	"hidestore/internal/fp"
	"hidestore/internal/recipe"
)

// FlattenRecipes implements the paper's Algorithm 1: it walks the recipe
// chain from the newest version down to floor, carrying a hash table of
// chunk → archival-container mappings harvested from newer recipes, and
// replaces forward pointers (negative CIDs) with the archival container
// IDs they chain to. Forward pointers whose chunks are still hot remain in
// place — those chunks live in active containers and resolve through the
// fingerprint cache at restore time.
//
// The paper runs this offline, periodically or right before restoring an
// old version; the engine's Restore does the same and reports the time
// spent as RecipeUpdateDuration.
func (e *Engine) FlattenRecipes(floor int) error {
	_, err := e.flatten(floor, true)
	return err
}

// flatten is FlattenRecipes returning the oldest recipe it walked, as
// flattened — the floor version's when that version is stored (nil on an
// empty store) — so Restore need not read it back. Without persist the
// walk is read-only: recipes are flattened in memory and never put, which
// is how AnalyzeLayout resolves exactly what Restore would.
func (e *Engine) flatten(floor int, persist bool) (*recipe.Recipe, error) {
	versions, err := e.cfg.Recipes.Versions()
	if err != nil {
		return nil, fmt.Errorf("core: flatten: %w", err)
	}
	if len(versions) == 0 {
		return nil, nil
	}
	if floor < versions[0] {
		floor = versions[0]
	}
	// T accumulates fp → archival CID while walking newest → oldest. An
	// older recipe's mapping overwrites a newer one's, so when recipe
	// R[u] is processed, T[f] holds the mapping from the oldest recipe
	// newer than u that archived f — exactly the target its forward
	// pointer chains to. (A chunk can be archived more than once if it
	// reappears after leaving the cache window; all copies are
	// byte-identical, so any resolution restores correct data.)
	table := make(map[fp.FP]int32)
	var rec *recipe.Recipe
	for i := len(versions) - 1; i >= 0; i-- {
		v := versions[i]
		if v < floor {
			break
		}
		if rec, err = e.cfg.Recipes.Get(v); err != nil {
			return nil, fmt.Errorf("core: flatten: %w", err)
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
			if err := e.cfg.Recipes.Put(rec); err != nil {
				return nil, fmt.Errorf("core: flatten: %w", err)
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
