package experiments

import (
	"fmt"
	"time"

	"hidestore/internal/metrics"
	"hidestore/internal/workload"
)

// Figure12Row is one workload's HiDeStore maintenance cost (§5.4).
type Figure12Row struct {
	Workload string
	Versions int
	// MeanRecipeUpdate is the mean per-version latency of updating the
	// previous recipe.
	MeanRecipeUpdate time.Duration
	// MeanMigrate is the mean per-version latency of moving cold chunks
	// and merging sparse containers.
	MeanMigrate time.Duration
	// FlattenLatency is Algorithm 1 for the oldest version: the time its
	// cold restore spends following version 1's forward pointers through
	// the newer recipes (RestoreReport.RecipeUpdateDuration).
	FlattenLatency time.Duration
	// MeanVersionBytes for context.
	MeanVersionBytes uint64
}

// Figure12Result holds maintenance overheads per workload.
type Figure12Result struct {
	Rows []Figure12Row
}

// Figure12 measures HiDeStore's two overhead sources — updating recipes
// and moving chunks from active to archival containers — on full engine
// runs, plus the pointer-following of one cold oldest-version restore
// (§5.4's Figure 12).
//
// Expected shape: both latencies are small (milliseconds at paper scale)
// and track the per-version data size, because the work is bounded by one
// version's chunks and one recipe, never by the dataset.
func Figure12(workloads []string, opts Options) (*Figure12Result, error) {
	opts = opts.withDefaults()
	if len(workloads) == 0 {
		workloads = workload.PresetNames()
	}
	res := &Figure12Result{}
	for _, name := range workloads {
		cfg, err := opts.loadWorkload(name)
		if err != nil {
			return nil, err
		}
		e, err := hidestoreEngine(opts, cfg)
		if err != nil {
			return nil, err
		}
		reports, err := backupAllVersions(e, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		var recipeSum, migrateSum time.Duration
		var bytesSum uint64
		for _, rep := range reports {
			recipeSum += rep.RecipeUpdateDuration
			migrateSum += rep.MigrateDuration
			bytesSum += rep.LogicalBytes
		}
		n := len(reports)
		// A cold restore of the oldest version follows the longest chain
		// there is: its RecipeUpdateDuration is the Algorithm 1 cost.
		rep, err := restoreDiscard(e, 1)
		if err != nil {
			return nil, fmt.Errorf("%s: restore v1: %w", name, err)
		}
		res.Rows = append(res.Rows, Figure12Row{
			Workload:         cfg.Name,
			Versions:         n,
			MeanRecipeUpdate: recipeSum / time.Duration(n),
			MeanMigrate:      migrateSum / time.Duration(n),
			FlattenLatency:   rep.RecipeUpdateDuration,
			MeanVersionBytes: bytesSum / uint64(n),
		})
	}
	return res, nil
}

// Render formats the overheads like Figure 12.
func (r *Figure12Result) Render() string {
	t := metrics.NewTable("Figure 12: HiDeStore overheads (per version)",
		"workload", "versions", "update recipe", "move+merge chunks", "flatten (Alg. 1)", "version size")
	for _, row := range r.Rows {
		t.AddRow(row.Workload,
			fmt.Sprintf("%d", row.Versions),
			row.MeanRecipeUpdate.String(),
			row.MeanMigrate.String(),
			row.FlattenLatency.String(),
			metrics.FormatBytes(row.MeanVersionBytes))
	}
	return t.Render()
}
