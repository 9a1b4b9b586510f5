package core

import (
	"hidestore/internal/backup"
	"hidestore/internal/container"
	"hidestore/internal/recipe"
)

var (
	_ backup.Checker  = (*Engine)(nil)
	_ backup.Repairer = (*Engine)(nil)
)

// Check verifies the integrity of everything the engine stores:
//
//   - every container decodes and every stored chunk's content hashes to
//     its fingerprint (the backend adapter additionally CRC-checks the
//     container image on read);
//   - every recipe entry is resolvable: archival CIDs point at containers
//     that hold the chunk; active and forward entries terminate at a hot
//     chunk or at an archival location via the recipe chain;
//   - the engine's fingerprint-cache bookkeeping agrees with the
//     containers: every hot chunk's recorded location actually holds it.
//
// Check is read-only and reports problems instead of failing fast, so one
// run inventories all damage.
func (e *Engine) Check() (backup.CheckReport, error) {
	rep, err := e.audit(false)
	return rep.CheckReport, err
}

// Repair implements backup.Repairer: the same audit as Check, but
// containers that fail to decode are quarantined (moved into the
// store's quarantine area, never deleted) and every version with at
// least one chunk lost to a quarantined container is named in
// AffectedVersions. Requires the store to implement
// container.Quarantiner (the backend adapter does; the memory store
// does not).
func (e *Engine) Repair() (backup.RepairReport, error) {
	return e.audit(true)
}

// audit runs the shared container walk, then HiDeStore's own passes over
// its bookkeeping and recipes; repair selects quarantine-and-name behavior
// on undecodable containers.
func (e *Engine) audit(repair bool) (backup.RepairReport, error) {
	var report backup.RepairReport

	// Pass 1: containers and chunk content.
	walk := backup.AuditContainers(e.cfg.Store, repair, &report)

	// Pass 2: the fingerprint cache's locations are real.
	for f, cid := range e.activeByFP {
		if !walk.Holds(f, cid) {
			report.Problemf("hot chunk %s: recorded in active container %d but absent", f.Short(), cid)
		}
	}

	// Pass 3: every recipe entry resolves to a stored chunk. Forward
	// pointers are chased through newer recipes without mutating anything.
	var versions []int
	recipes := make(map[int]*recipe.Recipe)
	backup.AuditRecipes(e.cfg.Recipes, &report, func(v int, rec *recipe.Recipe) {
		versions = append(versions, v)
		recipes[v] = rec
	})
	referenced := make(map[container.ID]struct{})
	for _, v := range versions {
		rec := recipes[v]
		report.Versions++
		for i, entry := range rec.Entries {
			report.Chunks++
			if entry.CID > 0 {
				referenced[container.ID(entry.CID)] = struct{}{}
			}
			ok, terminal := e.checkEntry(entry, recipes, walk)
			if !ok {
				report.Problemf("recipe v%d entry %d (%s, CID %d): unresolvable",
					v, i, entry.FP.Short(), entry.CID)
				walk.Blame(v, terminal)
			}
		}
	}
	report.AffectedVersions = walk.AffectedVersions()

	// Pass 4: orphan detection. A container neither active nor referenced
	// by any recipe is unreachable — typically debris from a crash between
	// a store write and the state write. Orphans are harmless (they waste
	// space, not correctness) but worth surfacing; the startup recovery
	// sweep reclaims them on the next open.
	for _, cid := range walk.IDs {
		if _, isActive := e.activeContainers[cid]; isActive {
			continue
		}
		if _, isReferenced := referenced[cid]; isReferenced {
			continue
		}
		if e.batchOwns(cid) {
			// Owned by a deletion batch whose recipes still chain to it
			// through forward pointers rather than direct CIDs.
			continue
		}
		if walk.Quarantined(cid) {
			continue
		}
		report.Problemf("container %d: orphaned (not active, not referenced by any recipe)", cid)
	}
	return report, nil
}

// batchOwns reports whether any recorded archival batch owns cid.
func (e *Engine) batchOwns(cid container.ID) bool {
	for _, batch := range e.batches {
		for _, id := range batch.containers {
			if id == cid {
				return true
			}
		}
	}
	return false
}

// checkEntry resolves one recipe entry against the store, following
// forward pointers. It returns whether the entry resolves and the
// terminal container the resolution ended at (0 when resolution dies
// before reaching a container — e.g. a missing recipe in the chain).
func (e *Engine) checkEntry(entry recipe.Entry, recipes map[int]*recipe.Recipe, walk *backup.ContainerAudit) (bool, container.ID) {
	for hops := 0; hops < len(recipes)+2; hops++ {
		switch {
		case entry.CID > 0:
			return walk.Holds(entry.FP, container.ID(entry.CID)), container.ID(entry.CID)
		case entry.CID == 0:
			cid, hot := e.activeByFP[entry.FP]
			if !hot {
				return false, 0
			}
			return walk.Holds(entry.FP, cid), cid
		default:
			next, ok := recipes[int(-entry.CID)]
			if !ok {
				return false, 0
			}
			found := false
			for _, cand := range next.Entries {
				if cand.FP == entry.FP {
					entry = cand
					found = true
					break
				}
			}
			if !found {
				// The chunk is not listed in the forwarded recipe; it may
				// still be hot (the chain's terminal case).
				cid, hot := e.activeByFP[entry.FP]
				if !hot {
					return false, 0
				}
				return walk.Holds(entry.FP, cid), cid
			}
		}
	}
	return false, 0 // cycle — corrupt chain
}
