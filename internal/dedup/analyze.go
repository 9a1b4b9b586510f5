package dedup

import (
	"context"

	"hidestore/internal/backup"
	"hidestore/internal/layout"
	"hidestore/internal/restorecache"
)

var _ backup.LayoutAnalyzer = (*Engine)(nil)

// AnalyzeLayout implements backup.LayoutAnalyzer. Baseline recipes
// already carry positive container IDs, so the recipe's entry stream
// feeds the analyzer as-is — the identical stream Restore hands the
// cache policy, which is what makes the simulated container-read
// counts match a real restore's exactly.
func (e *Engine) AnalyzeLayout(ctx context.Context, version int, policies []string) (*layout.Report, error) {
	rec, err := e.cfg.Recipes.Get(version)
	if err != nil {
		return nil, err
	}
	return layout.Analyze(ctx, version, rec.Entries, restorecache.StoreFetcher(e.cfg.Store), e.cfg.ContainerCapacity, policies, nil)
}
