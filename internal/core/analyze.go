package core

import (
	"context"

	"hidestore/internal/container"
	"hidestore/internal/layout"
	"hidestore/internal/restorecache"
)

// AnalyzeLayout implements backup.LayoutAnalyzer: it reports version's
// physical-locality profile (CFL, utilization, per-policy simulated
// restore cost) without restoring it and without mutating any state —
// unlike Restore, the forward pointers it follows are not written back. The
// simulation replays the same resolved reference stream Restore would
// feed the cache policies, so its container-read counts match a real
// restore's Stats.ContainerReads exactly.
func (e *Engine) AnalyzeLayout(ctx context.Context, version int, policies []string) (*layout.Report, error) {
	rec, err := e.cfg.Recipes.Get(version)
	if err != nil {
		return nil, err
	}
	resolved, err := e.resolve(ctx, rec, false)
	if err != nil {
		return nil, err
	}
	// The same source Restore hands the cache policies: the store, stale
	// chunks of write-once active images included (a policy may cache
	// them) — a precondition of the exact container-read identity between
	// analysis and a real restore. Only utilization asks the engine how
	// much of an active image is still live.
	live := make(map[container.ID]int, len(e.activeContainers))
	for id, c := range e.activeContainers {
		live[id] = c.LiveSize()
	}
	return layout.Analyze(ctx, version, resolved.Entries, restorecache.StoreFetcher(e.cfg.Store), e.cfg.ContainerCapacity, policies, live)
}
