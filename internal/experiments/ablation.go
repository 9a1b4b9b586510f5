package experiments

import (
	"fmt"

	"hidestore/internal/chunker"
	"hidestore/internal/core"
	"hidestore/internal/metrics"
	"hidestore/internal/restorecache"
	"hidestore/internal/workload"
)

// The ablations probe the design choices DESIGN.md calls out: the
// fingerprint-cache window (§4.1), the active-container merge threshold
// (§4.2), the container size (§2.1), the chunking algorithm (§5.1), and
// the restore cache (§5.3). None of these appear as figures in the paper;
// they quantify the sensitivity of its headline results.

// AblationRow is one configuration's outcome.
type AblationRow struct {
	Param string
	Value string
	// DedupRatio after the full chain.
	DedupRatio float64
	// NewestSF and OldestSF are restore speed factors for the last and
	// first version.
	NewestSF float64
	OldestSF float64
	// NewestMS is the newest version's restore wall-clock in
	// milliseconds — the quantity prefetching moves (speed factors, an
	// I/O count, are prefetch-invariant by design).
	NewestMS float64
	// Containers in the store at the end.
	Containers int
}

// AblationResult is one swept parameter.
type AblationResult struct {
	Workload string
	Param    string
	Rows     []AblationRow
}

// runHidestoreConfig backs up the chain on hidestoreConfig's engine with
// the swept field set by set, and measures the ablation metrics.
func runHidestoreConfig(cfg workload.Config, o Options, set func(*core.Config)) (AblationRow, error) {
	c := hidestoreConfig(o, cfg)
	set(&c)
	e, err := core.New(c)
	if err != nil {
		return AblationRow{}, err
	}
	if _, err := backupAllVersions(e, cfg); err != nil {
		return AblationRow{}, err
	}
	newest, err := restoreDiscard(e, cfg.Versions)
	if err != nil {
		return AblationRow{}, err
	}
	oldest, err := restoreDiscard(e, 1)
	if err != nil {
		return AblationRow{}, err
	}
	st := e.Stats()
	return AblationRow{
		DedupRatio: st.DedupRatio(),
		NewestSF:   newest.Stats.SpeedFactor(),
		OldestSF:   oldest.Stats.SpeedFactor(),
		NewestMS:   float64(newest.Duration.Microseconds()) / 1000,
		Containers: st.Containers,
	}, nil
}

// AblationWindow sweeps the fingerprint-cache window. Expected: window 2
// recovers dedup ratio on flapping (macos-like) workloads and changes
// little elsewhere; very large windows delay cold migration and dilute the
// newest version's locality.
func AblationWindow(workloadName string, opts Options) (*AblationResult, error) {
	opts = opts.withDefaults()
	cfg, err := opts.loadWorkload(workloadName)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Workload: cfg.Name, Param: "window"}
	for _, w := range []int{1, 2, 3, 5} {
		row, err := runHidestoreConfig(cfg, opts, func(c *core.Config) { c.Window = w })
		if err != nil {
			return nil, fmt.Errorf("window %d: %w", w, err)
		}
		row.Param, row.Value = "window", fmt.Sprintf("%d", w)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblationMergeThreshold sweeps the active-container merge utilization.
// Expected: 0 (never merge) leaves sparse active containers and hurts the
// newest version's speed factor; aggressive merging buys locality with
// more maintenance copying.
func AblationMergeThreshold(workloadName string, opts Options) (*AblationResult, error) {
	opts = opts.withDefaults()
	cfg, err := opts.loadWorkload(workloadName)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Workload: cfg.Name, Param: "merge-utilization"}
	for _, u := range []float64{0.01, 0.25, 0.5, 0.75, 0.95} {
		row, err := runHidestoreConfig(cfg, opts, func(c *core.Config) { c.MergeUtilization = u })
		if err != nil {
			return nil, fmt.Errorf("merge %.2f: %w", u, err)
		}
		row.Param, row.Value = "merge-utilization", fmt.Sprintf("%.2f", u)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblationContainerSize sweeps the container capacity. Expected: bigger
// containers raise the best-case speed factor linearly but amplify read
// waste once fragmentation appears — the paper fixes 4 MB for parity with
// prior work.
func AblationContainerSize(workloadName string, opts Options) (*AblationResult, error) {
	opts = opts.withDefaults()
	cfg, err := opts.loadWorkload(workloadName)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Workload: cfg.Name, Param: "container-size"}
	for _, size := range []int{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20} {
		row, err := runHidestoreConfig(cfg, opts, func(c *core.Config) { c.ContainerCapacity = size })
		if err != nil {
			return nil, fmt.Errorf("size %d: %w", size, err)
		}
		row.Param, row.Value = "container-size", metrics.FormatBytes(uint64(size))
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblationChunker compares chunking algorithms end to end. Expected:
// content-defined chunkers deduplicate comparably; fixed-size chunking
// loses heavily to boundary shift on insert-heavy workloads.
func AblationChunker(workloadName string, opts Options) (*AblationResult, error) {
	opts = opts.withDefaults()
	cfg, err := opts.loadWorkload(workloadName)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Workload: cfg.Name, Param: "chunker"}
	for _, alg := range []chunker.Algorithm{chunker.Fixed, chunker.Rabin, chunker.TTTD, chunker.FastCDC, chunker.AE} {
		row, err := runHidestoreConfig(cfg, opts, func(c *core.Config) { c.Chunker = alg })
		if err != nil {
			return nil, fmt.Errorf("%v: %w", alg, err)
		}
		row.Param, row.Value = "chunker", alg.String()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblationRestoreCache compares restore caches on the same HiDeStore
// store, including the clairvoyant OPT upper bound.
func AblationRestoreCache(workloadName string, opts Options) (*AblationResult, error) {
	opts = opts.withDefaults()
	cfg, err := opts.loadWorkload(workloadName)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Workload: cfg.Name, Param: "restore-cache"}
	for _, name := range []string{"container-lru", "chunk-lru", "faa", "alacc", "opt"} {
		rc, err := restorecache.New(name)
		if err != nil {
			return nil, err
		}
		row, err := runHidestoreConfig(cfg, opts, func(c *core.Config) { c.RestoreCache = rc })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		row.Param, row.Value = "restore-cache", name
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblationPrefetchDepth sweeps the restore read-ahead window. Expected:
// speed factors and container counts are bit-identical at every depth
// (prefetch only reorders when container reads happen, never which);
// wall clock improves with depth until the store's parallelism is
// saturated. -1 is the serial baseline.
func AblationPrefetchDepth(workloadName string, opts Options) (*AblationResult, error) {
	opts = opts.withDefaults()
	cfg, err := opts.loadWorkload(workloadName)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Workload: cfg.Name, Param: "prefetch-depth"}
	for _, depth := range []int{-1, 1, 2, 4, 8, 16} {
		row, err := runHidestoreConfig(cfg, opts, func(c *core.Config) { c.PrefetchDepth = depth })
		if err != nil {
			return nil, fmt.Errorf("prefetch %d: %w", depth, err)
		}
		row.Param, row.Value = "prefetch-depth", fmt.Sprintf("%d", depth)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Row returns the row with the given value, or nil.
func (r *AblationResult) Row(value string) *AblationRow {
	for i := range r.Rows {
		if r.Rows[i].Value == value {
			return &r.Rows[i]
		}
	}
	return nil
}

// Render formats the sweep.
func (r *AblationResult) Render() string {
	t := metrics.NewTable(fmt.Sprintf("Ablation (%s): %s", r.Workload, r.Param),
		r.Param, "dedup ratio", "newest SF", "oldest SF", "restore ms", "containers")
	for _, row := range r.Rows {
		t.AddRow(row.Value,
			metrics.FormatPercent(row.DedupRatio),
			metrics.FormatFloat(row.NewestSF),
			metrics.FormatFloat(row.OldestSF),
			metrics.FormatFloat(row.NewestMS),
			fmt.Sprintf("%d", row.Containers))
	}
	return t.Render()
}
