package core

import (
	"context"
	"fmt"

	"hidestore/internal/backup"
	"hidestore/internal/fp"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
)

// FlattenRecipes is the paper's Algorithm 1 run offline: in every stored
// recipe from the newest down to floor, each forward pointer (negative CID)
// is replaced by the archival container ID it chains to, if a newer recipe
// names one. Forward pointers whose chunks have been hot ever since remain
// in place — those chunks live in active containers and resolve through
// the fingerprint cache at restore time.
//
// It is a loop over the step Restore takes for one recipe (resolve). Going
// newest first, every step finds the recipes its pointers name already
// flat, so it reads those and no further: the pass costs one read per
// pointer-named version and at most one write per version, and a later
// restore of any of them follows no pointer at all.
func (e *Engine) FlattenRecipes(floor int) error {
	versions, err := e.cfg.Recipes.Versions()
	if err != nil {
		return fmt.Errorf("core: flatten: %w", err)
	}
	for i := len(versions) - 1; i >= 0 && versions[i] >= floor; i-- {
		rec, err := e.cfg.Recipes.Get(versions[i])
		if err != nil {
			return fmt.Errorf("core: flatten: %w", err)
		}
		//hidelint:ignore ignored-ctx the offline pass keeps its context-free signature (System.Flatten, the CLI); nothing upstream could cancel it
		res, err := e.resolve(context.Background(), rec, true, e.cfg.Recipes.Get)
		if err != nil {
			return fmt.Errorf("core: flatten: %w", err)
		}
		if res.Patched != nil {
			if err := e.cfg.Recipes.Put(res.Patched); err != nil {
				return fmt.Errorf("core: flatten: %w", err)
			}
		}
		e.flat[rec.Version] = struct{}{}
	}
	return nil
}

// resolve is the driver's resolve hook: rec's entries with every CID
// positive, the reference stream Restore feeds the cache policies and
// AnalyzeLayout simulates. Archival CIDs stand; CID 0 and forward pointers
// whose chunks are hot resolve through activeByFP. When that settles every
// entry nothing is read — pointers that end on still-hot chunks stay
// negative by design and must not cost a read on every restore — unless
// all is set (FlattenRecipes). Otherwise a forward pointer's chunk has gone
// cold, and the recipe's forward pointers are followed by need: newer
// recipes are read in ascending version order, each wanted fingerprint
// takes the first archival CID it meets — Algorithm 1's "oldest newer
// recipe that archived it", also for a chunk that went cold and has come
// back hot since: its archival copy sits with this version's other cold
// chunks — and reading stops when none is left to find. The table is the
// wanted set, bounded by rec's own chunk count whatever the chain length.
//
// Patched is rec itself with the pointers that led somewhere replaced, for
// the caller to write back (Restore, FlattenRecipes) or drop
// (AnalyzeLayout): once stored, this version never follows them again,
// and the next-older version's pointers end here after one read. Only
// entries with CID ≤ 0 change, the contract backup.Resolution states.
// Newer recipes are read with read: through the store's uncached view for
// a verifying restore.
func (e *Engine) resolve(ctx context.Context, rec *recipe.Recipe, all bool, read func(int) (*recipe.Recipe, error)) (backup.Resolution, error) {
	res := backup.Resolution{Entries: make([]recipe.Entry, len(rec.Entries))}
	forwards, cold := 0, 0
	for i, entry := range rec.Entries {
		if entry.CID < 0 {
			forwards++
		}
		if entry.CID <= 0 {
			if cid, hot := e.activeByFP[entry.FP]; hot {
				entry.CID = int32(cid)
			} else if entry.CID < 0 {
				cold++ // stays negative in the stream until a newer recipe places it
			} else {
				return res, unresolved(rec.Version, entry)
			}
		}
		res.Entries[i] = entry
	}
	if cold == 0 && !all {
		return res, nil
	}
	// wanted maps every chunk behind a forward pointer to its archival
	// container, 0 until a newer recipe names one; named is the newest
	// version those pointers name.
	wanted := make(map[fp.FP]int32, forwards)
	named := rec.Version
	for _, entry := range rec.Entries {
		if v, forward := entry.Forward(); forward {
			wanted[entry.FP] = 0
			named = max(named, v)
		}
	}
	res.Wanted = len(wanted)
	missing := len(wanted)
	var err error
	res.RecipesRead, err = e.readNewer(ctx, rec.Version+1, named, read, func(newer *recipe.Recipe) bool {
		for _, entry := range newer.Entries {
			if entry.CID > 0 {
				if cid, ok := wanted[entry.FP]; ok && cid == 0 {
					wanted[entry.FP] = entry.CID
					missing--
				}
			}
		}
		return missing > 0
	})
	if err != nil {
		return res, err // a store's read error or ctx's, both self-describing
	}
	for i := range rec.Entries {
		entry := &rec.Entries[i]
		if entry.CID >= 0 {
			continue
		}
		if cid := wanted[entry.FP]; cid > 0 {
			entry.CID, res.Entries[i].CID = cid, cid
			res.Patched = rec
		} else if res.Entries[i].CID < 0 {
			return res, unresolved(rec.Version, *entry)
		}
	}
	return res, nil
}

func unresolved(version int, entry recipe.Entry) error {
	return fmt.Errorf("core: v%d: chunk %s unresolved (CID %d)", version, entry.FP.Short(), entry.CID)
}

// isFlat reports whether version's stored recipe is known to hold every
// archival CID a newer recipe could give it: no newer recipe has left the
// cache window yet (the ones inside it hold none), or resolve has run over
// it and the result been stored since the last backup.
func (e *Engine) isFlat(version int) bool {
	_, marked := e.flat[version]
	return marked || version >= e.version-e.cfg.Window
}

// readNewer reads the recipes of versions from, from+1, … with read and
// hands them to use in that order until use returns false, nothing newer
// can add to what it has seen, or the last version that has left the
// cache window has been used.
// Versions are taken from the engine's own count, not listed: expiry is
// oldest-first, so everything newer than a stored version is stored.
//
// Nothing newer can add anything once the versions up to named — the ones
// the wanted pointers name — have been used and the last Window of them
// are flat: a pointer still unanswered then runs through one of those, and
// a flat recipe's pointers lead to no archival copy. That is what makes a
// newest → oldest sweep cost one read per restore instead of the chain.
//
// Reads overlap, consumption does not: first the versions up to named,
// then, if those were not enough, a sliding wave as wide as the restore's
// read-ahead. It returns how many reads it issued, all of them finished:
// recipe.Store is context-free, so a read in flight can only be awaited,
// and ctx is checked between recipes.
func (e *Engine) readNewer(ctx context.Context, from, named int, read func(int) (*recipe.Recipe, error),
	use func(*recipe.Recipe) bool) (issued int, _ error) {
	type outcome struct {
		rec *recipe.Recipe
		err error
	}
	wide := e.cfg.PrefetchDepth
	switch {
	case wide == 0:
		wide = restorecache.DefaultPrefetchDepth
	case wide < 0:
		wide = 1
	}
	last := e.version - e.cfg.Window
	width := max(named-from+1, 1)
	var inflight []chan outcome // oldest version first
	defer func() {
		for _, ch := range inflight {
			<-ch
		}
	}()
	flatRun := 0
	for v, next := from, from; ; v++ {
		if err := ctx.Err(); err != nil {
			return issued, err
		}
		for ; next <= last && len(inflight) < width; next++ {
			ch := make(chan outcome, 1)
			go func(version int) {
				rec, err := read(version)
				ch <- outcome{rec, err}
			}(next)
			inflight = append(inflight, ch)
			issued++
		}
		if len(inflight) == 0 {
			return issued, nil
		}
		got := <-inflight[0]
		inflight = inflight[1:]
		if got.err != nil {
			return issued, got.err
		}
		if !use(got.rec) {
			return issued, nil
		}
		if e.isFlat(v) {
			flatRun++
		} else {
			flatRun = 0
		}
		if v >= named {
			if flatRun >= e.cfg.Window {
				return issued, nil
			}
			width = wide
		}
	}
}
