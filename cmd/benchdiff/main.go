// Command benchdiff compares two BENCH_<exp>.json snapshots written by
// cmd/bench and prints a per-metric old/new/delta table. Usage:
//
//	go run ./cmd/benchdiff [-fail-above PCT] BENCH_restore.json fresh/BENCH_restore.json
//
// Every value in a snapshot is exact — counts, modeled time, write
// amplification, allocations per chunk; wall time is benchmark/'s — so
// by default the report is informational and -fail-above PCT turns it
// into a gate: a metric whose direction is known that moves more than
// PCT percent the wrong way prints a REGRESSION line and fails the run,
// and so does a direction-known metric the new snapshot no longer
// carries, so a gated count cannot vanish silently. Metrics with no
// inherent direction (byte totals, cache hits, mean chunk sizes) are
// never gated, and a missing baseline still passes — there is nothing to
// regress from.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	failAbove := fs.Float64("fail-above", 0, "exit nonzero when a direction-classified metric regresses by more than PCT percent or goes missing (0 = report only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchdiff [-fail-above PCT] OLD.json NEW.json")
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
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
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
			// A gated metric that stops being emitted would otherwise
			// retire its own gate without a word.
			if *failAbove > 0 && direction(k) != 0 {
				regressions = append(regressions, fmt.Sprintf(
					"REGRESSION: %s: %s -> gone (a gated metric is missing from the new run)", k, num(ov)))
			}
		default:
			row("%s\t%s\t%s\t%s\t\n", k, num(ov), num(nv), delta(ov, nv))
			if worse, pct := regressed(k, ov, nv); *failAbove > 0 && worse && pct > *failAbove {
				regressions = append(regressions, fmt.Sprintf(
					"REGRESSION: %s: %s -> %s (%.1f%% worse, threshold %.1f%%)",
					k, num(ov), num(nv), pct, *failAbove))
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
		if _, err := fmt.Fprintln(out, strings.Join(regressions, "\n")); err != nil {
			return err
		}
		return fmt.Errorf("%d metric(s) regressed beyond %.1f%% or went missing", len(regressions), *failAbove)
	}
	return nil
}

// directions names every metric benchdiff gates and which way is better:
// +1 when larger values are better, -1 when smaller are. Keys not named
// here — byte totals, cache hits, mean chunk sizes — have no inherent
// direction and are never gated.
var directions = []struct {
	metric string
	dir    int
}{
	{"speedup", 1},
	{"advantage", 1},
	{"cfl", 1},
	{"utilization", 1},
	{"reads", -1},
	{"modeled_ms", -1},
	{"containers_per_mb", -1},
	{"allocs_per_chunk", -1},
	{"write_amplification", -1},
	{"scan_share", -1},
	{"hash_share", -1},
}

// direction classifies a flattened metric key by the metric name it
// carries, wherever the workload prefix and the scheme/cell suffix put
// it: extra.kernel_reads_hidestore_depth8_us5000 is a read count,
// extra.kernel_advantage_us5000 an advantage,
// extra.restore_recipe_reads_oldest_kernel a read count. A name matches
// only whole underscore-separated words of the key's last segment.
func direction(key string) int {
	leaf := "_" + key[strings.LastIndex(key, ".")+1:] + "_"
	for _, d := range directions {
		if strings.Contains(leaf, "_"+d.metric+"_") {
			return d.dir
		}
	}
	return 0
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
