package core

import (
	"sort"

	"hidestore/internal/backup"
	"hidestore/internal/container"
	"hidestore/internal/fp"
	"hidestore/internal/recipe"
)

var (
	_ backup.Checker  = (*Engine)(nil)
	_ backup.Repairer = (*Engine)(nil)
)

// Check verifies the integrity of everything the engine stores:
//
//   - every container decodes and every stored chunk's content hashes to
//     its fingerprint (file-backed stores additionally CRC-check the
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
// container.Quarantiner (file-backed stores do).
func (e *Engine) Repair() (backup.RepairReport, error) {
	return e.audit(true)
}

// audit is the shared fsck walk; repair selects quarantine-and-name
// behavior on undecodable containers.
func (e *Engine) audit(repair bool) (backup.RepairReport, error) {
	var report backup.RepairReport
	corrupt := make(map[container.ID]bool)

	// Pass 1: containers and chunk content.
	chunkAt := make(map[fp.FP]map[container.ID]struct{})
	stored, err := e.cfg.Store.IDs()
	if err != nil {
		report.Problemf("store: cannot enumerate containers: %v", err)
	}
	for _, cid := range stored {
		//hidelint:ignore accounting fsck integrity walk, not a restore; its reads must not skew speed-factor stats
		ctn, err := e.cfg.Store.Get(cid)
		if err != nil {
			report.Problemf("container %d: %v", cid, err)
			if repair {
				e.quarantine(cid, corrupt, &report)
			}
			continue
		}
		report.Containers++
		for _, f := range ctn.Fingerprints() {
			data, err := ctn.View(f)
			if err != nil {
				report.Problemf("container %d chunk %s: %v", cid, f.Short(), err)
				continue
			}
			report.StoredChunks++
			if got := fp.Of(data); got != f {
				report.Problemf("container %d chunk %s: content hashes to %s", cid, f.Short(), got.Short())
				continue
			}
			locs, ok := chunkAt[f]
			if !ok {
				locs = make(map[container.ID]struct{}, 1)
				chunkAt[f] = locs
			}
			locs[cid] = struct{}{}
		}
	}

	// Pass 2: the fingerprint cache's locations are real.
	for f, cid := range e.activeByFP {
		if _, ok := chunkAt[f][cid]; !ok {
			report.Problemf("hot chunk %s: recorded in active container %d but absent", f.Short(), cid)
		}
	}

	// Pass 3: every recipe entry resolves to a stored chunk. Forward
	// pointers are chased through newer recipes without mutating anything.
	recipes := make(map[int]*recipe.Recipe)
	versions, err := e.cfg.Recipes.Versions()
	if err != nil {
		report.Problemf("recipes: cannot enumerate versions: %v", err)
	}
	for _, v := range versions {
		rec, err := e.cfg.Recipes.Get(v)
		if err != nil {
			report.Problemf("recipe v%d: %v", v, err)
			continue
		}
		recipes[v] = rec
	}
	referenced := make(map[container.ID]struct{})
	affected := make(map[int]bool)
	for _, v := range versions {
		rec, ok := recipes[v]
		if !ok {
			continue
		}
		report.Versions++
		for i, entry := range rec.Entries {
			report.Chunks++
			if entry.CID > 0 {
				referenced[container.ID(entry.CID)] = struct{}{}
			}
			ok, terminal := e.checkEntry(entry, recipes, chunkAt)
			if !ok {
				report.Problemf("recipe v%d entry %d (%s, CID %d): unresolvable",
					v, i, entry.FP.Short(), entry.CID)
				if corrupt[terminal] {
					affected[v] = true
				}
			}
		}
	}
	for v := range affected {
		report.AffectedVersions = append(report.AffectedVersions, v)
	}
	sort.Ints(report.AffectedVersions)

	// Pass 4: orphan detection. A container neither active nor referenced
	// by any recipe is unreachable — typically debris from a crash between
	// a store write and the state write. Orphans are harmless (they waste
	// space, not correctness) but worth surfacing; the startup recovery
	// sweep reclaims them on the next open.
	for _, cid := range stored {
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
		if corrupt[cid] {
			// Already quarantined this pass.
			continue
		}
		report.Problemf("container %d: orphaned (not active, not referenced by any recipe)", cid)
	}
	return report, nil
}

// quarantine moves an undecodable container aside, recording the
// destination and marking the CID so recipe resolution can attribute
// losses to it.
func (e *Engine) quarantine(cid container.ID, corrupt map[container.ID]bool, report *backup.RepairReport) {
	q, ok := e.cfg.Store.(container.Quarantiner)
	if !ok {
		report.Problemf("container %d: store cannot quarantine; image left in place", cid)
		return
	}
	dst, err := q.Quarantine(cid)
	if err != nil {
		report.Problemf("container %d: quarantine failed: %v", cid, err)
		return
	}
	corrupt[cid] = true
	report.Quarantined = append(report.Quarantined, dst)
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
func (e *Engine) checkEntry(entry recipe.Entry, recipes map[int]*recipe.Recipe,
	chunkAt map[fp.FP]map[container.ID]struct{}) (bool, container.ID) {
	for hops := 0; hops < len(recipes)+2; hops++ {
		switch {
		case entry.CID > 0:
			_, ok := chunkAt[entry.FP][container.ID(entry.CID)]
			return ok, container.ID(entry.CID)
		case entry.CID == 0:
			cid, hot := e.activeByFP[entry.FP]
			if !hot {
				return false, 0
			}
			_, ok := chunkAt[entry.FP][cid]
			return ok, cid
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
				_, ok := chunkAt[entry.FP][cid]
				return ok, cid
			}
		}
	}
	return false, 0 // cycle — corrupt chain
}
