package dedup

import (
	"sort"

	"hidestore/internal/backup"
	"hidestore/internal/container"
	"hidestore/internal/fp"
)

var (
	_ backup.Checker  = (*Engine)(nil)
	_ backup.Repairer = (*Engine)(nil)
)

// Check verifies the baseline store: every container's chunks hash to
// their fingerprints, and every recipe entry points at a container that
// holds the chunk (baseline recipes only ever use positive CIDs).
func (e *Engine) Check() (backup.CheckReport, error) {
	rep, err := e.audit(false)
	return rep.CheckReport, err
}

// Repair implements backup.Repairer: the same audit as Check, with
// undecodable containers quarantined and the versions that reference
// them named in AffectedVersions.
func (e *Engine) Repair() (backup.RepairReport, error) {
	return e.audit(true)
}

func (e *Engine) audit(repair bool) (backup.RepairReport, error) {
	var report backup.RepairReport
	corrupt := make(map[container.ID]bool)
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
				if q, ok := e.cfg.Store.(container.Quarantiner); ok {
					dst, qerr := q.Quarantine(cid)
					if qerr != nil {
						report.Problemf("container %d: quarantine failed: %v", cid, qerr)
					} else {
						corrupt[cid] = true
						report.Quarantined = append(report.Quarantined, dst)
					}
				} else {
					report.Problemf("container %d: store cannot quarantine; image left in place", cid)
				}
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
	versions, err := e.cfg.Recipes.Versions()
	if err != nil {
		report.Problemf("recipes: cannot enumerate versions: %v", err)
	}
	affected := make(map[int]bool)
	for _, v := range versions {
		rec, err := e.cfg.Recipes.Get(v)
		if err != nil {
			report.Problemf("recipe v%d: %v", v, err)
			continue
		}
		report.Versions++
		for i, entry := range rec.Entries {
			report.Chunks++
			if entry.CID <= 0 {
				report.Problemf("recipe v%d entry %d: non-positive CID %d", v, i, entry.CID)
				continue
			}
			if _, ok := chunkAt[entry.FP][container.ID(entry.CID)]; !ok {
				report.Problemf("recipe v%d entry %d (%s): container %d does not hold it",
					v, i, entry.FP.Short(), entry.CID)
				if corrupt[container.ID(entry.CID)] {
					affected[v] = true
				}
			}
		}
	}
	for v := range affected {
		report.AffectedVersions = append(report.AffectedVersions, v)
	}
	sort.Ints(report.AffectedVersions)
	return report, nil
}
