// Command bench regenerates the paper's tables and figures at full scale.
//
// Usage:
//
//	bench -exp all                     # everything, all four workloads
//	bench -exp fig11 -workloads kernel # one figure, one workload
//	bench -exp fig8 -scale 16 -versions 30
//
// Experiments: table1, fig3, fig8, fig9, fig10, fig11, fig12, deletion,
// backup, chunkers, ablations, restore, all. Output is aligned text: the
// same rows/series the paper plots, plus the exact counts behind the
// committed snapshots (make bench): the write hot path's allocations and
// write amplification (backup), each chunker's cut (chunkers), and the
// scheme × prefetch depth × fetch latency restore sweep over the
// simulated remote store with its exact restore counts (restore).
//
// With -json DIR, every experiment additionally writes a
// machine-readable BENCH_<exp>.json summary to DIR: the run's logical
// and restored bytes, restore container reads and cache hits, and the
// experiment's own exact metrics under "extra". Nothing in it is a wall
// time — benchmark/ measures time — so a committed value moves only
// when code does. Experiments that never touch a storage engine (the
// metadata-only index studies) emit zeros for the engine counters.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hidestore/internal/chunker"
	"hidestore/internal/experiments"
	"hidestore/internal/obs"
	"hidestore/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "all", "experiment: table1|fig3|fig8|fig9|fig10|fig11|fig12|deletion|backup|chunkers|ablations|restore|all")
		workloads = fs.String("workloads", "", "comma-separated workloads (default: all four presets)")
		scale     = fs.Int("scale", 8, "approximate per-version size in MB")
		versions  = fs.Int("versions", 20, "versions per workload (0 = preset's full count)")
		ctnSize   = fs.Int("container", 1<<20, "container capacity in bytes")
		deletes   = fs.Int("deletes", 0, "versions to expire in the deletion experiment (0 = half)")
		format    = fs.String("format", "table", "output format: table|csv")
		jsonDir   = fs.String("json", "", "directory for machine-readable BENCH_<exp>.json summaries (created if missing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := experiments.Options{
		ScaleMB:           *scale,
		Versions:          *versions,
		ContainerCapacity: *ctnSize,
		ChunkParams:       chunker.DefaultParams(),
	}
	names := workload.PresetNames()
	if *workloads != "" {
		names = strings.Split(*workloads, ",")
	}
	run := func(id string) error {
		start := time.Now()
		opts := opts // per-run copy, so each experiment gets a fresh registry
		if *jsonDir != "" {
			opts.Metrics = obs.NewRegistry()
		}
		extra := map[string]float64{}
		switch id {
		case "table1":
			res, err := experiments.Table1(names, opts)
			if err != nil {
				return err
			}
			fmt.Println(res.Render())
		case "fig3":
			for _, name := range names {
				res, err := experiments.Figure3(name, opts)
				if err != nil {
					return err
				}
				fmt.Println(res.Render())
				fmt.Printf("plateau ratios (drop captured within 1/2 versions): tag1 %.0f%%/%.0f%%, tag2 %.0f%%/%.0f%%\n\n",
					res.PlateauRatio(1, 1)*100, res.PlateauRatio(1, 2)*100,
					res.PlateauRatio(2, 1)*100, res.PlateauRatio(2, 2)*100)
			}
		case "fig8":
			res, err := experiments.Figure8(names, opts)
			if err != nil {
				return err
			}
			fmt.Println(res.Render())
		case "fig9":
			for _, name := range names {
				res, err := experiments.Figure9(name, opts)
				if err != nil {
					return err
				}
				if *format == "csv" {
					emitSeriesCSV("fig9", name, "lookups_per_gb", func(scheme string) []float64 {
						return res.SchemeSeries(scheme).LookupsPerGB
					}, experiments.Figure9Schemes)
				} else {
					fmt.Println(res.Render())
				}
			}
		case "fig10":
			for _, name := range names {
				res, err := experiments.Figure10(name, opts)
				if err != nil {
					return err
				}
				if *format == "csv" {
					emitSeriesCSV("fig10", name, "index_bytes_per_mb", func(scheme string) []float64 {
						return res.SchemeSeries(scheme).MemBytesPerMB
					}, experiments.Figure9Schemes)
				} else {
					fmt.Println(res.Render())
				}
			}
		case "fig11":
			for _, name := range names {
				res, err := experiments.Figure11(name, opts)
				if err != nil {
					return err
				}
				if *format == "csv" {
					emitSeriesCSV("fig11", name, "speed_factor", func(scheme string) []float64 {
						return res.SpeedFactor[scheme]
					}, experiments.Figure11Schemes)
					continue
				}
				fmt.Println(res.Render())
				fmt.Printf("newest-version speed factors: hidestore %.3f, alacc-fbw %.3f (%.2fx), baseline %.3f (%.2fx)\n\n",
					res.Newest("hidestore"),
					res.Newest("alacc-fbw"), safeDiv(res.Newest("hidestore"), res.Newest("alacc-fbw")),
					res.Newest("baseline"), safeDiv(res.Newest("hidestore"), res.Newest("baseline")))
			}
		case "fig12":
			res, err := experiments.Figure12(names, opts)
			if err != nil {
				return err
			}
			fmt.Println(res.Render())
		case "deletion":
			for _, name := range names {
				res, err := experiments.Deletion(name, *deletes, opts)
				if err != nil {
					return err
				}
				fmt.Println(res.Render())
			}
		case "backup":
			for _, name := range names {
				res, err := experiments.BackupPerf(name, opts)
				if err != nil {
					return err
				}
				fmt.Println(res.Render())
				for k, v := range res.Extras() {
					extra[name+"_"+k] = v
				}
			}
		case "chunkers":
			res, err := experiments.Chunkers(opts)
			if err != nil {
				return err
			}
			fmt.Println(res.Render())
			for k, v := range res.Extras() {
				extra[k] = v
			}
		case "restore":
			for _, name := range names {
				res, err := experiments.RestoreScale(name, opts)
				if err != nil {
					return err
				}
				fmt.Println(res.Render())
				for k, v := range res.Extras() {
					extra[name+"_"+k] = v
				}
				extra["restore_allocs_per_chunk_"+name] = res.AllocsPerChunk
				extra["restore_recipe_reads_oldest_"+name] = res.RecipeReadsOldest
			}
		case "ablations":
			type runner func(string, experiments.Options) (*experiments.AblationResult, error)
			sweeps := []runner{
				experiments.AblationWindow,
				experiments.AblationMergeThreshold,
				experiments.AblationContainerSize,
				experiments.AblationChunker,
				experiments.AblationRestoreCache,
				experiments.AblationPrefetchDepth,
			}
			for _, name := range names {
				for _, sweep := range sweeps {
					res, err := sweep(name, opts)
					if err != nil {
						return err
					}
					fmt.Println(res.Render())
				}
			}
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		if *jsonDir != "" {
			path, err := writeBenchJSON(*jsonDir, id, names, opts.Metrics, extra)
			if err != nil {
				return fmt.Errorf("%s: write JSON summary: %w", id, err)
			}
			fmt.Printf("[wrote %s]\n", path)
		}
		fmt.Printf("[%s done in %s]\n\n", id, time.Since(start).Round(time.Millisecond))
		return nil
	}
	if *exp == "all" {
		for _, id := range []string{"table1", "fig3", "fig8", "fig9", "fig10", "fig11", "fig12", "deletion", "backup", "chunkers", "ablations", "restore"} {
			if err := run(id); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
		return nil
	}
	return run(*exp)
}

// emitSeriesCSV prints one figure's series as CSV rows:
// figure,workload,metric,scheme,version,value
func emitSeriesCSV(figure, workload, metric string, series func(string) []float64, schemes []string) {
	fmt.Println("figure,workload,metric,scheme,version,value")
	for _, scheme := range schemes {
		for i, v := range series(scheme) {
			fmt.Printf("%s,%s,%s,%s,%d,%g\n", figure, workload, metric, scheme, i+1, v)
		}
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// benchSummary is the machine-readable document written per experiment:
// exact counts only. The engine counters accumulate over every scheme and
// workload the experiment ran.
type benchSummary struct {
	Experiment     string   `json:"experiment"`
	Workloads      []string `json:"workloads"`
	LogicalBytes   int64    `json:"logical_bytes"`
	RestoredBytes  int64    `json:"restored_bytes"`
	ContainerReads int64    `json:"container_reads"`
	CacheHits      int64    `json:"cache_hits"`
	// Extra carries experiment-specific exact metrics (allocs per chunk,
	// write amplification, read counts, modeled times, ...) that
	// cmd/benchdiff diffs by key.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// writeBenchJSON writes the experiment's counters and extra metrics to
// DIR/BENCH_<exp>.json and returns the written path.
func writeBenchJSON(dir, exp string, workloads []string, reg *obs.Registry, extra map[string]float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	snap := reg.Snapshot()
	sum := benchSummary{
		Experiment:     exp,
		Workloads:      workloads,
		LogicalBytes:   snap.Counters["hidestore_backup_logical_bytes_total"].Value,
		RestoredBytes:  snap.Counters["hidestore_restore_bytes_total"].Value,
		ContainerReads: snap.Counters["hidestore_restore_container_reads_total"].Value,
		CacheHits:      snap.Counters["hidestore_restore_cache_hits_total"].Value,
	}
	if len(extra) > 0 {
		sum.Extra = extra
	}
	path := filepath.Join(dir, "BENCH_"+exp+".json")
	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
