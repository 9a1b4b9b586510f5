package dedup

import (
	"hidestore/internal/backup"
	"hidestore/internal/container"
	"hidestore/internal/recipe"
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
	e.restore.Forget()
	e.restore.ForgetRecipes()
	return e.audit(true)
}

// audit runs the shared container walk, then the baseline's one pass of
// its own: every recipe entry names a container that holds the chunk.
func (e *Engine) audit(repair bool) (backup.RepairReport, error) {
	var report backup.RepairReport
	walk := backup.AuditContainers(e.cfg.Store, repair, &report)
	backup.AuditRecipes(e.cfg.Recipes, &report, func(v int, rec *recipe.Recipe) {
		report.Versions++
		for i, entry := range rec.Entries {
			report.Chunks++
			if entry.CID <= 0 {
				report.Problemf("recipe v%d entry %d: non-positive CID %d", v, i, entry.CID)
				continue
			}
			if !walk.Holds(entry.FP, container.ID(entry.CID)) {
				report.Problemf("recipe v%d entry %d (%s): container %d does not hold it",
					v, i, entry.FP.Short(), entry.CID)
				walk.Blame(v, container.ID(entry.CID))
			}
		}
	})
	report.AffectedVersions = walk.AffectedVersions()
	return report, nil
}
