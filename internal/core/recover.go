package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"hidestore/internal/backend"
	"hidestore/internal/container"
)

// recoverStartup reconciles the on-disk stores with the committed state
// after a crash. It runs at New whenever a state file was loaded, and
// restores three invariants, in order:
//
//  1. Rollback: recipes newer than the state anchor are removed — the
//     crash hit a Backup between its recipe write and its state commit,
//     so the dedup bookkeeping for those versions is lost and their
//     CID-0 entries can never resolve again. Everything the committed
//     state references is still on disk (commit order: containers →
//     recipe → state, with retired images deleted only post-state),
//     so the previous versions remain intact.
//  2. Redo: a recorded deletion batch whose recipe is gone is a Delete
//     that crashed between its recipe removal (the commit point) and
//     its state save — finish it by dropping the batch's containers.
//  3. Sweep: container images nothing references (not an active
//     container, not batch-owned, not named by any recipe) are crash
//     debris — the rolled-back version's sealed actives, archival and
//     merged containers, half-flushed deferred deletes — and are
//     removed. Images are write-once, so everything the committed state
//     does reference is on disk exactly as that state left it.
func (e *Engine) recoverStartup(ctx context.Context) error {
	versions, err := e.cfg.Recipes.Versions()
	if err != nil {
		return fmt.Errorf("core: recovery: %w", err)
	}
	repaired := false
	committed := versions[:0]
	rolledBack := false
	for _, v := range versions {
		if v > e.version {
			if err := e.cfg.Recipes.Delete(v); err != nil {
				return fmt.Errorf("core: recovery: rollback recipe v%d: %w", v, err)
			}
			if e.rcv != nil {
				e.rcv.Rollbacks.Inc()
			}
			e.tracer.Event("recovery.rollback", nil, map[string]int64{"version": int64(v)})
			repaired = true
			rolledBack = true
			continue
		}
		committed = append(committed, v)
	}
	if rolledBack {
		if err := e.resetDanglingForwards(committed); err != nil {
			return err
		}
	}

	present := make(map[int]bool, len(committed))
	for _, v := range committed {
		present[v] = true
	}
	batchVersions := make([]int, 0, len(e.batches))
	for v := range e.batches {
		batchVersions = append(batchVersions, v)
	}
	sort.Ints(batchVersions)
	stateChanged := false
	for _, v := range batchVersions {
		if present[v] {
			continue
		}
		for _, cid := range e.batches[v].containers {
			if err := e.cfg.Store.Delete(cid); err != nil && !errors.Is(err, container.ErrNotFound) {
				return fmt.Errorf("core: recovery: redo delete v%d: %w", v, err)
			}
		}
		e.storedBytes -= e.batches[v].bytes
		delete(e.batches, v)
		if e.rcv != nil {
			e.rcv.RedoDeletes.Inc()
		}
		e.tracer.Event("recovery.redo_delete", nil, map[string]int64{"version": int64(v)})
		repaired = true
		stateChanged = true
	}

	swept, err := e.sweepOrphans(committed)
	if err != nil {
		return err
	}
	if swept > 0 {
		repaired = true
	}
	if !repaired && e.rcv != nil {
		e.rcv.StartupsClean.Inc()
	}
	if stateChanged {
		return e.saveState(ctx)
	}
	return nil
}

// resetDanglingForwards repairs recipes the crashed backup patched in
// place. The departing recipe is rewritten during a backup — before the
// state commit — giving its still-hot chunks forward pointers into the
// version being backed up. Rolling that version back strands those
// pointers, so they are reset to CID 0: every such chunk was hot when
// the committed state was saved, and the reloaded fingerprint cache
// resolves CID 0 entries exactly as the pre-patch recipe did. (Archival
// CIDs the same patch introduced stay: their containers were written
// before the patch, and the orphan sweep keeps referenced images.)
func (e *Engine) resetDanglingForwards(versions []int) error {
	for _, v := range versions {
		rec, err := e.cfg.Recipes.Get(v)
		if err != nil {
			// An unreadable recipe cannot be repaired here; fsck will
			// report it. Leave it for the operator.
			continue
		}
		changed := false
		for i := range rec.Entries {
			if cid := rec.Entries[i].CID; cid < 0 && int(-cid) > e.version {
				rec.Entries[i].CID = 0
				changed = true
			}
		}
		if !changed {
			continue
		}
		if err := e.cfg.Recipes.Put(rec); err != nil {
			return fmt.Errorf("core: recovery: unpatch recipe v%d: %w", v, err)
		}
	}
	return nil
}

// sweepOrphans deletes container images nothing references, reporting
// how many it removed. The sweep is abandoned (without error) if any
// recipe fails to decode: with one recipe's references unknown,
// deleting anything could destroy data it points at — the debris stays
// and fsck reports the corrupt recipe.
func (e *Engine) sweepOrphans(versions []int) (int, error) {
	stored, err := e.cfg.Store.IDs()
	if err != nil {
		return 0, fmt.Errorf("core: recovery: %w", err)
	}
	referenced := make(map[container.ID]struct{})
	// Past the store's cache, which would otherwise open full of recipes
	// no restore asked for.
	recipes := backend.UncachedRecipes(e.cfg.Recipes)
	for _, v := range versions {
		rec, err := recipes.Get(v)
		if err != nil {
			return 0, nil
		}
		for _, entry := range rec.Entries {
			if entry.CID > 0 {
				referenced[container.ID(entry.CID)] = struct{}{}
			}
		}
	}
	swept := 0
	for _, cid := range stored {
		if _, active := e.activeContainers[cid]; active {
			continue
		}
		if _, ok := referenced[cid]; ok {
			continue
		}
		if e.batchOwns(cid) {
			continue
		}
		if err := e.cfg.Store.Delete(cid); err != nil && !errors.Is(err, container.ErrNotFound) {
			return swept, fmt.Errorf("core: recovery: sweep container %d: %w", cid, err)
		}
		swept++
		if e.rcv != nil {
			e.rcv.OrphansSwept.Inc()
		}
		e.tracer.Event("recovery.orphan_sweep", nil, map[string]int64{"cid": int64(cid)})
	}
	return swept, nil
}
