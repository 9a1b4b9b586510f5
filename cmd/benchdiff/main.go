// Command benchdiff compares two BENCH_<exp>.json snapshots written by
// cmd/bench and prints a per-metric old/new/delta table. By default it
// is report-only: deltas inform review, they do not gate — benchmark
// noise on shared CI runners would make a tight threshold flaky.
// Usage:
//
//	go run ./cmd/benchdiff BENCH_backup.json fresh/BENCH_backup.json
//
// -fail-above PCT turns the report into a regression gate: a metric
// whose direction is known (throughput and locality ratios are
// higher-better; latencies, wall time and read counts are
// lower-better) that moves more than PCT percent the wrong way prints
// a REGRESSION line and fails the run. Metrics with no inherent
// direction (counts, sizes, configuration echoes) are never gated, and
// a missing baseline still passes — there is nothing to regress from.
// Pick a threshold well above runner noise (the CI wiring uses
// deliberately loose ones).
//
// -deterministic-only narrows the gate to metrics that are pure
// functions of code and input — allocs/chunk, write amplification and
// recipe reads — so wall-time metrics (MB/s, latencies) remain
// report-only however noisy the runner. This is how CI gates the backup
// hot path: an allocation regression fails the build, a slow runner
// does not. A deterministic key the new snapshot no longer carries
// fails the gate as well, so a gated count cannot vanish silently.
//
// By default the stage-latency subtree is summarized along with the
// top-level throughput numbers and the experiment's extra metrics;
// -all includes every numeric leaf.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	all := fs.Bool("all", false, "include every numeric leaf (histogram percentiles, counts)")
	failAbove := fs.Float64("fail-above", 0, "exit nonzero when a direction-classified metric regresses by more than PCT percent (0 = report only)")
	detOnly := fs.Bool("deterministic-only", false, "with -fail-above, gate only deterministic metrics (allocs/chunk, write amplification, recipe reads); wall-time metrics stay report-only, so runner noise cannot fail the build")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchdiff [-all] [-fail-above PCT] [-deterministic-only] OLD.json NEW.json")
	}
	if *failAbove < 0 {
		return fmt.Errorf("-fail-above %v: threshold must be positive", *failAbove)
	}
	oldM, err := flattenFile(fs.Arg(0))
	if err != nil {
		// A missing baseline snapshot is routine (first CI run, new
		// experiment): report every metric as new rather than failing.
		// Malformed JSON is still an error — only unreadable content
		// exits nonzero.
		if !errors.Is(err, os.ErrNotExist) {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchdiff: %s: no baseline, reporting all metrics as new\n", fs.Arg(0))
		oldM = map[string]float64{}
	}
	newM, err := flattenFile(fs.Arg(1))
	if err != nil {
		return err
	}
	keys := make(map[string]bool)
	for k := range oldM {
		keys[k] = true
	}
	for k := range newM {
		keys[k] = true
	}
	var sorted []string
	for k := range keys {
		if !*all && strings.HasPrefix(k, "stages.") && !strings.HasSuffix(k, ".p50_ns") {
			continue
		}
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	var werr error
	row := func(format string, args ...any) {
		if werr == nil {
			_, werr = fmt.Fprintf(w, format, args...)
		}
	}
	row("metric\told\tnew\tdelta\t\n")
	var regressions []string
	for _, k := range sorted {
		ov, haveOld := oldM[k]
		nv, haveNew := newM[k]
		switch {
		case !haveOld:
			row("%s\t-\t%s\tnew\t\n", k, num(nv))
		case !haveNew:
			row("%s\t%s\t-\tgone\t\n", k, num(ov))
			// An exact count that stops being emitted would otherwise
			// retire its own gate without a word.
			if *failAbove > 0 && deterministic(k) {
				regressions = append(regressions, fmt.Sprintf(
					"REGRESSION: %s: %s -> gone (a gated exact count is missing from the new run)", k, num(ov)))
			}
		default:
			row("%s\t%s\t%s\t%s\t\n", k, num(ov), num(nv), delta(ov, nv))
			if *failAbove > 0 && (!*detOnly || deterministic(k)) {
				if worse, pct := regressed(k, ov, nv); worse && pct > *failAbove {
					regressions = append(regressions, fmt.Sprintf(
						"REGRESSION: %s: %s -> %s (%.1f%% worse, threshold %.1f%%)",
						k, num(ov), num(nv), pct, *failAbove))
				}
			}
		}
	}
	if werr != nil {
		return werr
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, r)
		}
		return fmt.Errorf("%d metric(s) regressed beyond %.1f%% or went missing", len(regressions), *failAbove)
	}
	return nil
}

// direction classifies a flattened metric key: +1 when larger values
// are better (throughput, locality ratios), -1 when smaller values are
// better (latencies, wall time, read counts), 0 when the metric has no
// inherent direction (counts, sizes, configuration echoes) and must
// not be gated. Classification is by suffix so the same rule covers a
// metric wherever it nests (extra.kernel_cfl, stages.*.p50_ns).
func direction(key string) int {
	switch {
	case strings.HasSuffix(key, "mb_per_sec"),
		strings.HasSuffix(key, "speedup"),
		strings.HasSuffix(key, "speed_factor"),
		strings.HasSuffix(key, "dedup_ratio"),
		strings.HasSuffix(key, "utilization"),
		strings.HasSuffix(key, "cfl"):
		return 1
	case strings.HasSuffix(key, "_ns"),
		strings.HasSuffix(key, "_ms"),
		strings.HasSuffix(key, "wall_seconds"),
		strings.HasSuffix(key, "reads"),
		strings.HasSuffix(key, "containers_per_mb"),
		strings.Contains(key, "allocs_per_chunk"),
		strings.Contains(key, "write_amplification"),
		strings.Contains(key, "recipe_reads"):
		return -1
	}
	return 0
}

// deterministic reports whether a key's value is a pure function of
// the code and inputs, independent of runner speed and load. Only
// these keys are safe to hard-gate in CI: allocs/chunk counts exactly
// what the allocator did, write amplification exactly what the engine
// put into containers and recipe reads exactly what following an old
// version's forward pointers asked of the recipe store, while MB/s and
// latency keys measure the machine as much as the code. Matched by
// substring because the per-scheme variants append the scheme name
// after the metric (…_allocs_per_chunk_hidestore). Under -fail-above a
// deterministic key present in OLD but missing from NEW fails too.
func deterministic(key string) bool {
	return strings.Contains(key, "allocs_per_chunk") || strings.Contains(key, "write_amplification") ||
		strings.Contains(key, "recipe_reads")
}

// regressed reports whether new moved the wrong way relative to old
// for a direction-classified key, and by what percentage of old.
// Zero or non-finite baselines cannot express a percentage and are
// never regressions.
func regressed(key string, oldV, newV float64) (bool, float64) {
	dir := direction(key)
	if dir == 0 || oldV == 0 ||
		math.IsNaN(oldV) || math.IsNaN(newV) || math.IsInf(oldV, 0) || math.IsInf(newV, 0) {
		return false, 0
	}
	// Positive pct = worse: a drop for higher-better metrics, a rise
	// for lower-better ones.
	pct := 100 * (newV - oldV) / math.Abs(oldV) * float64(-dir)
	return pct > 0, pct
}

// flattenFile reads a JSON document and returns its numeric leaves
// keyed by dotted path.
func flattenFile(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64)
	flatten("", doc, out)
	return out, nil
}

func flatten(prefix string, v any, out map[string]float64) {
	switch t := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flatten(p, t[k], out)
		}
	case []any:
		for i, e := range t {
			flatten(fmt.Sprintf("%s.%d", prefix, i), e, out)
		}
	case float64:
		out[prefix] = t
	}
}

func num(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3f", v)
}

// delta renders new-old with a relative percentage. Metrics that appear
// with a 0-valued baseline have no meaningful percentage (the naive
// 100*d/oldV is ±Inf) and print as "new"; non-finite inputs or results
// print "n/a" instead of leaking Inf/NaN into the report.
func delta(oldV, newV float64) string {
	if math.IsNaN(oldV) || math.IsNaN(newV) || math.IsInf(oldV, 0) || math.IsInf(newV, 0) {
		return "n/a"
	}
	d := newV - oldV
	if oldV == 0 {
		if d == 0 {
			return "0"
		}
		return "new"
	}
	signed := num(d)
	if d >= 0 {
		signed = "+" + signed
	}
	pct := 100 * d / oldV
	if math.IsNaN(pct) || math.IsInf(pct, 0) {
		return "n/a"
	}
	return fmt.Sprintf("%s (%+.1f%%)", signed, pct)
}
