// Command benchmark is the repository's one repeatable benchmark: four
// version-chain workloads driven through hidestore.System in a closed loop
// by a single client, every restored byte compared with its source, the
// end-to-end metrics with tracing off and a per-layer waterfall from a
// separate traced pass. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	// setupRepeats is how often set-up runs, so setup_s is a median.
	setupRepeats = 5
	// minRounds is the fewest timed rounds a median is taken over.
	minRounds = 5
	// minTraceRounds is the fewest layer rounds and engine pairs of a traced
	// run, which splits its time between the two.
	minTraceRounds = 2
)

type options struct {
	seed    int64
	seconds float64
	// rounds fixes the number of timed rounds; 0 runs rounds until seconds
	// have passed (and at least minRounds).
	rounds int
	trace  bool
	outDir string
	chain  chain
}

// metricReport is one metric in the full result.
type metricReport struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	summary
}

type envBlock struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	CPUModel    string `json:"cpu_model"`
	Kernel      string `json:"kernel"`
	Commit      string `json:"commit"`
	Seed        int64  `json:"seed"`
	Versions    int    `json:"chain_versions"`
	VersionMB   int    `json:"chain_version_mb"`
	LogicalMB   int64  `json:"chain_logical_mb"`
	Sweeps      int    `json:"restore_sweeps"`
	Concurrency string `json:"concurrency"`
}

// result is the full report of one workload run.
type result struct {
	Workload    string                  `json:"workload"`
	Trace       bool                    `json:"trace"`
	Env         envBlock                `json:"env"`
	Correct     bool                    `json:"correct"`
	Attempted   int                     `json:"attempted_ops"`
	Failed      int                     `json:"failed_ops"`
	FailedShare float64                 `json:"failed_share"`
	Metrics     map[string]metricReport `json:"metrics"`
	// Counts are exact and repeat for the same seed.
	Counts map[string]uint64 `json:"counts"`
	// RestoreVersionMS is the wall time of single Restore calls over all
	// timed rounds: the median and the highest percentile with at least ten
	// samples beyond it. Informational.
	RestoreVersionMS *latencyReport `json:"restore_version_ms,omitempty"`
	// Layers is the per-round median of every span name of the traced pass.
	Layers map[string]layerStat `json:"layers,omitempty"`
}

type latencyReport struct {
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_percentile"`
	Tail  float64 `json:"tail"`
	N     int     `json:"n"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var opts options
	var workloadName string
	var traceFlag int
	var selfcheck bool
	flag.StringVar(&workloadName, "workload", "", "workload to run: "+strings.Join(benchNames(), ", "))
	flag.Int64Var(&opts.seed, "seed", 1, "workload seed, mixed into the preset's own")
	flag.Float64Var(&opts.seconds, "seconds", 22, "how long to measure")
	flag.IntVar(&opts.rounds, "rounds", 0, "fixed number of timed rounds (0: as many as fit into -seconds, at least 5)")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer pass, 0 the end-to-end rounds")
	flag.StringVar(&opts.outDir, "out", "out", "directory for results, traces and temporary stores")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload twice and fail if the two sets disagree")
	flag.Parse()
	opts.trace = traceFlag != 0
	opts.chain = defaultChain

	// The stores live in a temp directory that every exit path removes: the
	// signal cancels ctx, the calls into System return, and the deferred
	// removals run before run returns the exit code.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return fatal(err)
	}
	if selfcheck {
		return runSelfcheck(ctx, opts)
	}
	b, err := benchByName(workloadName)
	if err != nil {
		return fatal(err)
	}
	res, err := runBench(ctx, b, opts)
	if err != nil {
		return fatal(err)
	}
	if err := report(res, opts.outDir); err != nil {
		return fatal(err)
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

func benchNames() []string {
	names := make([]string, len(benches))
	for i, b := range benches {
		names[i] = b.name
	}
	return names
}

// runner is the state of one workload run.
type runner struct {
	ctx     context.Context
	b       bench
	opts    options
	tmp     string  // holds the stores; removed when the run ends
	tr      *tracer // nil unless opts.trace
	streams [][]byte
	logical int64
	s       samples
	res     *result
	round   int
	warm    roundResult // the warm-up round, whose counts every round must repeat
}

// runBench measures one workload: set-up, a warm-up round (the first round
// of a process is ~2x slower from heap growth) and then either the timed
// end-to-end rounds or the traced pass.
func runBench(ctx context.Context, b bench, opts options) (*result, error) {
	tmp, err := os.MkdirTemp(opts.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	r := &runner{ctx: ctx, b: b, opts: opts, tmp: tmp, s: samples{}}
	if opts.trace {
		r.tr = newTracer()
	}
	if err := r.setUp(); err != nil {
		return nil, err
	}
	r.res = &result{
		Workload: b.name,
		Trace:    opts.trace,
		Env:      environment(b, opts, r.logical),
		Metrics:  map[string]metricReport{},
	}
	if r.warm, err = r.engineRound(nil); err != nil {
		return nil, err
	}
	r.res.Counts = map[string]uint64{
		"chunks":          uint64(r.warm.chunks),
		"container_reads": r.warm.reads,
		"restored_bytes":  r.warm.restored,
		"stored_bytes":    r.warm.stored,
		"logical_bytes":   r.warm.logical,
	}
	defs, pass := endToEnd, r.endToEndPass
	if opts.trace {
		defs, pass = perLayer, r.tracedPass
	}
	if err := pass(); err != nil {
		return nil, err
	}
	for _, d := range defs {
		r.res.Metrics[d.Name] = metricReport{Unit: d.Unit, Better: d.Better, Bound: d.Bound, summary: summarize(r.s[d.Name])}
	}
	r.res.Correct = r.res.Failed == 0
	r.res.FailedShare = float64(r.res.Failed) / float64(r.res.Attempted)
	return r.res, nil
}

// setUp materializes the streams and opens a store, setupRepeats times so
// that setup_s is a median; the last set of streams is kept.
func (r *runner) setUp() error {
	dir := filepath.Join(r.tmp, "setup")
	for i := 0; i < setupRepeats; i++ {
		r.streams = nil
		runtime.GC()
		root := r.tr.beginRound("setup")
		start := time.Now()
		sp := r.tr.begin("workload.gen")
		streams, err := materialize(r.b.preset, r.opts.seed, r.opts.chain)
		if err != nil {
			return err
		}
		r.streams, r.logical = streams, totalBytes(streams)
		r.tr.end(sp, r.logical)
		r.s.add("workload.gen_mbps", mbPerS(r.logical, time.Since(start).Seconds()))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if _, err := r.b.open(dir); err != nil {
			return err
		}
		r.s.add("setup_s", time.Since(start).Seconds())
		r.tr.end(root, 0)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) roundDir() string {
	r.round++
	return filepath.Join(r.tmp, fmt.Sprintf("round-%d", r.round))
}

// engineRound runs one round through System, traced or not, and checks its
// exact counts against the warm-up round's.
func (r *runner) engineRound(tr *tracer) (roundResult, error) {
	rr, err := runRound(r.ctx, r.b, r.streams, r.roundDir(), tr)
	if err != nil {
		return rr, err
	}
	r.res.Attempted += rr.attempted
	r.res.Failed += rr.failed
	if r.round > 1 { // round 1 is the warm-up itself
		if err := sameCounts(r.warm, rr); err != nil {
			r.res.Failed++
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.b.name, err)
		}
	}
	return rr, nil
}

// timedLoop calls round until budget has passed and round has run at least
// atLeast times, or exactly opts.rounds times when that is set.
func (r *runner) timedLoop(budget time.Duration, atLeast int, round func() error) error {
	deadline := time.Now().Add(budget)
	for n := 0; ; n++ {
		if r.opts.rounds > 0 {
			if n >= r.opts.rounds {
				return nil
			}
		} else if n >= atLeast && !time.Now().Before(deadline) {
			return nil
		}
		if err := r.ctx.Err(); err != nil {
			return err
		}
		if err := round(); err != nil {
			return err
		}
	}
}

func (r *runner) budget() time.Duration {
	return time.Duration(r.opts.seconds * float64(time.Second))
}

// endToEndPass is the untraced measurement: timed rounds, medians.
func (r *runner) endToEndPass() error {
	var rounds []roundResult
	var versionMS []float64
	err := r.timedLoop(r.budget(), minRounds, func() error {
		rr, err := r.engineRound(nil)
		rounds = append(rounds, rr)
		versionMS = append(versionMS, rr.versionMS...)
		return err
	})
	if err != nil {
		return err
	}
	endToEndSamples(r.s, r.b, rounds, r.logical)
	p := tailPercentile(len(versionMS))
	r.res.RestoreVersionMS = &latencyReport{
		P50: percentile(versionMS, 50), TailP: p, Tail: percentile(versionMS, p), N: len(versionMS),
	}
	return nil
}

// tracedPass spends half the time on engine rounds, in pairs of one untraced
// and one traced round in alternating order, and half on layer rounds, which
// are measured against the untraced engine rounds' median wall times.
func (r *runner) tracedPass() error {
	var untraced, traced []roundResult
	err := r.timedLoop(r.budget()/2, minTraceRounds, func() error {
		pair := [2]*tracer{nil, r.tr}
		if len(traced)%2 == 1 {
			pair[0], pair[1] = pair[1], pair[0]
		}
		for _, t := range pair {
			rr, err := r.engineRound(t)
			if err != nil {
				return err
			}
			if t == nil {
				untraced = append(untraced, rr)
			} else {
				traced = append(traced, rr)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	var backupS, sweepS []float64
	for _, rr := range untraced {
		backupS = append(backupS, rr.backupS)
		sweepS = append(sweepS, rr.restoreS/float64(r.b.sweeps))
	}

	var first *layerCounts
	err = r.timedLoop(r.budget()/2, minTraceRounds, func() error {
		lc, err := layerRound(r.ctx, r.tr, r.b, r.streams, r.roundDir())
		if err != nil {
			return err
		}
		r.res.Attempted += len(r.streams)
		r.res.Failed += lc.failed
		if first == nil {
			first = &lc
		} else if lc != *first {
			r.res.Failed++
			fmt.Fprintf(os.Stderr, "%s: layer counts differ between rounds: %+v vs %+v\n", r.b.name, *first, lc)
		}
		layerSamples(r.s, r.b, r.tr.roundStats(r.tr.round), lc, median(backupS), median(sweepS))
		return nil
	})
	if err != nil {
		return err
	}
	engineSamples(r.s, r.logical, untraced, traced, first.idealReads)
	r.res.Counts["ideal_reads"] = first.idealReads
	r.res.Layers = layerMedians(r.tr)
	return r.tr.writeJSONL(filepath.Join(r.opts.outDir, "trace-"+r.b.name+".jsonl"))
}

// layerMedians reports, per span name, the median over the rounds in which
// the name occurs.
func layerMedians(tr *tracer) map[string]layerStat {
	type series struct{ calls, total, self, bytes []float64 }
	byName := map[string]*series{}
	for round := 1; round <= tr.round; round++ {
		for name, st := range tr.roundStats(round) {
			se := byName[name]
			if se == nil {
				se = &series{}
				byName[name] = se
			}
			se.calls = append(se.calls, float64(st.Calls))
			se.total = append(se.total, st.TotalS)
			se.self = append(se.self, st.SelfS)
			se.bytes = append(se.bytes, float64(st.Bytes))
		}
	}
	out := make(map[string]layerStat, len(byName))
	for name, se := range byName {
		out[name] = layerStat{
			Calls: int(median(se.calls)), TotalS: median(se.total), SelfS: median(se.self), Bytes: int64(median(se.bytes)),
		}
	}
	return out
}

// finalLine is the one-line result the driver reads from the end of stdout.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]finalMetric `json:"metrics"`
}

type finalMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) final() finalLine {
	line := finalLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]finalMetric{}}
	for name, m := range r.Metrics {
		line.Metrics[name] = finalMetric{Value: m.Median, Unit: m.Unit}
	}
	return line
}

// report prints the full result, saves it under outDir, and prints the final
// line last.
func report(r *result, outDir string) error {
	full, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := "result-" + r.Workload
	if r.Trace {
		name += "-trace"
	}
	if err := os.WriteFile(filepath.Join(outDir, name+".json"), append(full, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(r.final())
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n%s\n", full, line)
	return err
}

// runSelfcheck runs every workload twice back to back and compares the two
// sets: gated metrics must agree within their own bound, exact counts
// exactly.
func runSelfcheck(ctx context.Context, opts options) int {
	opts.trace = false
	var sets [2]map[string]*result
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, b := range benches {
			res, err := runBench(ctx, b, opts)
			if err != nil {
				return fatal(err)
			}
			if !res.Correct {
				return fatal(fmt.Errorf("%s: %d of %d ops failed", b.name, res.Failed, res.Attempted))
			}
			sets[i][b.name] = res
		}
	}
	var problems []error
	for _, b := range benches {
		first, second := sets[0][b.name], sets[1][b.name]
		for _, d := range endToEnd {
			m1, m2 := first.Metrics[d.Name].Median, second.Metrics[d.Name].Median
			diff := math.Abs(m2-m1) / m1
			status := "ok"
			if diff > d.Bound {
				status = "DISAGREE"
				problems = append(problems, fmt.Errorf("%s %s: %g vs %g differ by %.1f%%, bound %.0f%%", b.name, d.Name, m1, m2, diff*100, d.Bound*100))
			}
			fmt.Printf("%-14s %-22s %12.4f %12.4f %-8s %5.1f%% of %2.0f%% %s\n", b.name, d.Name, m1, m2, d.Unit, diff*100, d.Bound*100, status)
		}
		for name, c1 := range first.Counts {
			if c2 := second.Counts[name]; c1 != c2 {
				problems = append(problems, fmt.Errorf("%s count %s: %d vs %d", b.name, name, c1, c2))
			}
		}
		fmt.Printf("%-14s counts %v\n", b.name, first.Counts)
	}
	if err := errors.Join(problems...); err != nil {
		return fatal(err)
	}
	fmt.Println("selfcheck: both sets agree")
	return 0
}
