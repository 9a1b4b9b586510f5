// Command tracereport turns a JSONL span trace (written by hidestore
// -trace) into per-operation reports: a waterfall of each operation's
// stages, per-stage p50/p99 latency and MB/s breakdowns, a container-fetch
// timeline, and — for parallel restores — reorder-window stall
// attribution (time the in-order writer sat blocked vs. time spent
// fetching).
//
// It is also the trace's validator: a trace file accumulates one
// segment per CLI invocation (append mode), each bracketed by a
// "trace.open" and a "trace.close" anchor with its own ID sequence.
// tracereport checks every segment for balance — anchors present,
// span IDs unique, parents resolvable, no span left open — and exits
// nonzero on any violation, which is how CI gates on instrumentation
// regressions. Usage:
//
//	go run ./cmd/tracereport [-top N] [-fetches N] trace.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"hidestore/internal/cleanup"
	"hidestore/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracereport:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracereport", flag.ContinueOnError)
	top := fs.Int("top", 12, "stage rows per operation waterfall")
	fetches := fs.Int("fetches", 0, "individual container-fetch rows to list per operation (0 = summary only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: tracereport [-top N] [-fetches N] trace.jsonl")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer cleanup.Close(f) // read-only input
	segs, err := parseSegments(f)
	if err != nil {
		return err
	}
	for i, seg := range segs {
		if err := seg.validate(); err != nil {
			return fmt.Errorf("segment %d (opened %s): %w", i+1, seg.openedAt().Format(time.RFC3339), err)
		}
	}
	p := &printer{w: out}
	for i, seg := range segs {
		p.printf("=== segment %d/%d · opened %s · %d records ===\n",
			i+1, len(segs), seg.openedAt().Format(time.RFC3339), len(seg.records))
		seg.report(p, *top, *fetches)
	}
	p.printf("trace OK: %d segment(s), all spans balanced\n", len(segs))
	return p.err
}

// printer captures the first write error so the report code stays
// linear; run surfaces it once the report is done.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

func (p *printer) println() { p.printf("\n") }

// segment is one CLI invocation's slice of the trace: an open anchor,
// its records, and a close anchor. IDs restart per segment.
type segment struct {
	open    obs.TraceRecord
	close   *obs.TraceRecord
	records []obs.TraceRecord // excluding the anchors
}

func (s *segment) openedAt() time.Time { return time.Unix(s.open.Unix, 0).UTC() }

// parseSegments splits the JSONL stream into per-invocation segments
// on "trace.open" anchors. Records before the first anchor, garbage
// lines and unterminated anchors are all malformed input.
func parseSegments(r io.Reader) ([]*segment, error) {
	var segs []*segment
	var cur *segment
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec obs.TraceRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		switch rec.Name {
		case "trace.open":
			if rec.Unix == 0 {
				return nil, fmt.Errorf("line %d: trace.open anchor without a wall clock", lineNo)
			}
			if cur != nil && cur.close == nil {
				return nil, fmt.Errorf("line %d: new trace.open before the previous segment closed", lineNo)
			}
			cur = &segment{open: rec}
			segs = append(segs, cur)
		case "trace.close":
			if cur == nil || cur.close != nil {
				return nil, fmt.Errorf("line %d: trace.close without a matching trace.open", lineNo)
			}
			c := rec
			cur.close = &c
		default:
			if cur == nil {
				return nil, fmt.Errorf("line %d: record %q before any trace.open anchor", lineNo, rec.Name)
			}
			if cur.close != nil {
				return nil, fmt.Errorf("line %d: record %q after the segment's trace.close", lineNo, rec.Name)
			}
			cur.records = append(cur.records, rec)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("no trace.open anchor found (empty or non-trace input)")
	}
	return segs, nil
}

// validate checks one segment's span balance: a close anchor exists
// and reports zero open spans, IDs are unique, parents resolve, and
// offsets/durations are sane.
func (s *segment) validate() error {
	if s.close == nil {
		return fmt.Errorf("no trace.close anchor: the writing process did not finalize the trace")
	}
	if n := s.close.Attrs["open_spans"]; n != 0 {
		return fmt.Errorf("%d span(s) started but never ended (close anchor open_spans=%d)", n, n)
	}
	ids := make(map[uint64]string, len(s.records))
	ids[s.open.ID] = s.open.Name
	ids[s.close.ID] = s.close.Name
	for _, rec := range s.records {
		if rec.Name == "" {
			return fmt.Errorf("record id %d has no span name", rec.ID)
		}
		if rec.Start < 0 || rec.Dur < 0 {
			return fmt.Errorf("span %q id %d: negative offset or duration", rec.Name, rec.ID)
		}
		if prev, dup := ids[rec.ID]; dup {
			return fmt.Errorf("duplicate span id %d (%q and %q)", rec.ID, prev, rec.Name)
		}
		ids[rec.ID] = rec.Name
	}
	for _, rec := range s.records {
		if rec.Parent != 0 {
			if _, ok := ids[rec.Parent]; !ok {
				return fmt.Errorf("span %q id %d references unknown parent %d", rec.Name, rec.ID, rec.Parent)
			}
		}
	}
	return nil
}

// report prints the segment's per-operation waterfalls and the
// cross-operation stage breakdown.
func (s *segment) report(p *printer, top, fetchRows int) {
	children := make(map[uint64][]obs.TraceRecord)
	var roots []obs.TraceRecord
	for _, rec := range s.records {
		if rec.Parent == 0 {
			roots = append(roots, rec)
		} else {
			children[rec.Parent] = append(children[rec.Parent], rec)
		}
	}
	for _, root := range roots {
		s.reportOperation(p, root, children[root.ID], top, fetchRows)
	}
	if len(roots) == 0 && len(s.records) > 0 {
		p.printf("  (%d records, no root operations)\n", len(s.records))
	}
	s.reportStages(p)
}

// stageAgg aggregates one span name under one operation.
type stageAgg struct {
	name     string
	count    int
	total    time.Duration
	durs     []time.Duration
	minStart int64
	maxEnd   int64
	bytes    int64 // summed "bytes" attrs (segment-wide table only)
}

// reportOperation prints one root span: header, per-stage waterfall
// rows (aggregated by span name, bars spanning first-start..last-end
// relative to the operation), and the fetch/stall attribution.
func (s *segment) reportOperation(p *printer, root obs.TraceRecord, kids []obs.TraceRecord, top, fetchRows int) {
	p.printf("\n%s", root.Name)
	if v, ok := root.Attrs["version"]; ok {
		p.printf(" v%d", v)
	}
	p.printf(" · %s", fmtDur(time.Duration(root.Dur)))
	if b, ok := root.Attrs["bytes"]; ok && root.Dur > 0 {
		mbs := float64(b) / (1 << 20) / time.Duration(root.Dur).Seconds()
		p.printf(" · %.2f MB · %.1f MB/s", float64(b)/(1<<20), mbs)
	}
	if root.Attrs["error"] != 0 {
		p.printf(" · FAILED")
	}
	p.println()

	stages := make(map[string]*stageAgg)
	var order []string
	for _, k := range kids {
		a := stages[k.Name]
		if a == nil {
			a = &stageAgg{name: k.Name, minStart: k.Start, maxEnd: k.Start + k.Dur}
			stages[k.Name] = a
			order = append(order, k.Name)
		}
		a.count++
		a.total += time.Duration(k.Dur)
		a.durs = append(a.durs, time.Duration(k.Dur))
		if k.Start < a.minStart {
			a.minStart = k.Start
		}
		if end := k.Start + k.Dur; end > a.maxEnd {
			a.maxEnd = end
		}
	}
	sort.Slice(order, func(i, j int) bool { return stages[order[i]].total > stages[order[j]].total })
	shown := order
	if len(shown) > top {
		shown = shown[:top]
	}
	for _, name := range shown {
		a := stages[name]
		p.printf("  %-24s %5dx  total %-9s p50 %-9s p99 %-9s %s\n",
			a.name, a.count, fmtDur(a.total),
			fmtDur(quantile(a.durs, 0.50)), fmtDur(quantile(a.durs, 0.99)),
			bar(a.minStart, a.maxEnd, root.Start, root.Start+root.Dur))
	}
	if len(order) > len(shown) {
		p.printf("  … %d more stage(s)\n", len(order)-len(shown))
	}

	// Critical-path attribution: how much of the operation's wall time
	// the instrumented stages cover (cumulative stage time can exceed
	// wall when stages overlap — fetch pipelining, parallel assembly).
	var cum time.Duration
	for _, a := range stages {
		cum += a.total
	}
	if root.Dur > 0 && cum > 0 {
		p.printf("  stage coverage: %s cumulative over %s wall (%.0f%%)\n",
			fmtDur(cum), fmtDur(time.Duration(root.Dur)), 100*float64(cum)/float64(root.Dur))
	}

	s.reportFetches(p, root, kids, fetchRows)
}

// reportFetches prints what a restore's forward pointers cost to follow,
// how many of its reads the resident images served, the container-fetch timeline
// summary and, for parallel restores, the
// stall attribution; for backups, the commit plane's timeline — its
// container puts legitimately overlap.
func (s *segment) reportFetches(p *printer, root obs.TraceRecord, kids []obs.TraceRecord, fetchRows int) {
	var fetch, stall, flush []obs.TraceRecord
	for _, k := range kids {
		switch k.Name {
		case "recipe.flatten":
			// Exact work counts: what following this version's forward
			// pointers read and wrote, beside the time the waterfall gives.
			p.printf("  resolve: %d recipes, %d wanted, %d written\n",
				k.Attrs["recipes_read"], k.Attrs["wanted"], k.Attrs["recipes_written"])
		case "container.fetch":
			fetch = append(fetch, k)
		case "assembly.stall":
			stall = append(stall, k)
		case "container.flush.async":
			flush = append(flush, k)
		}
	}
	if len(flush) > 0 {
		var total time.Duration
		for _, f := range flush {
			total += time.Duration(f.Dur)
		}
		p.printf("  commit timeline: %d container puts, %s cumulative, max overlap %d\n",
			len(flush), fmtDur(total), maxOverlap(flush))
	}
	if resident, ok := root.Attrs["resident_reads"]; ok {
		// Reads the engine's resident active images served: counted reads
		// that never reached the store.
		p.printf("  resident %d of %d reads\n", resident, root.Attrs["container_reads"])
	}
	if len(fetch) > 0 {
		sort.Slice(fetch, func(i, j int) bool { return fetch[i].Start < fetch[j].Start })
		var total time.Duration
		cids := make(map[int64]bool)
		for _, f := range fetch {
			total += time.Duration(f.Dur)
			cids[f.Attrs["cid"]] = true
		}
		p.printf("  fetch timeline: %d reads of %d container(s), %s cumulative, max overlap %d\n",
			len(fetch), len(cids), fmtDur(total), maxOverlap(fetch))
		for i, f := range fetch {
			if i >= fetchRows {
				break
			}
			p.printf("    +%-10s %-9s cid %d\n",
				fmtDur(time.Duration(f.Start-root.Start)), fmtDur(time.Duration(f.Dur)), f.Attrs["cid"])
		}
	}
	if len(stall) > 0 {
		var stallTotal, fetchTotal time.Duration
		var durs []time.Duration
		for _, st := range stall {
			stallTotal += time.Duration(st.Dur)
			durs = append(durs, time.Duration(st.Dur))
		}
		for _, f := range fetch {
			fetchTotal += time.Duration(f.Dur)
		}
		pct := 0.0
		if root.Dur > 0 {
			pct = 100 * float64(stallTotal) / float64(root.Dur)
		}
		p.printf("  reorder-window stalls: %d, blocked on in-order writer %s (%.1f%% of wall, p99 %s) vs fetching %s\n",
			len(stall), fmtDur(stallTotal), pct, fmtDur(quantile(durs, 0.99)), fmtDur(fetchTotal))
	}
}

// reportStages prints the segment-wide per-stage latency table.
func (s *segment) reportStages(p *printer) {
	stages := make(map[string]*stageAgg)
	var order []string
	for _, rec := range s.records {
		if rec.Dur == 0 {
			continue // events carry no latency
		}
		a := stages[rec.Name]
		if a == nil {
			a = &stageAgg{name: rec.Name}
			stages[rec.Name] = a
			order = append(order, rec.Name)
		}
		a.count++
		a.total += time.Duration(rec.Dur)
		a.durs = append(a.durs, time.Duration(rec.Dur))
		a.bytes += rec.Attrs["bytes"]
	}
	if len(order) == 0 {
		return
	}
	sort.Slice(order, func(i, j int) bool { return stages[order[i]].total > stages[order[j]].total })
	p.printf("\nper-stage breakdown (segment-wide):\n")
	p.printf("  %-24s %6s %10s %10s %10s %10s %10s\n", "stage", "count", "total", "p50", "p99", "max", "MB/s")
	for _, name := range order {
		a := stages[name]
		sort.Slice(a.durs, func(i, j int) bool { return a.durs[i] < a.durs[j] })
		// Throughput over the stage's summed time, for stages that say how
		// many bytes they moved.
		mbs := ""
		if a.bytes > 0 {
			mbs = fmt.Sprintf("%.1f", float64(a.bytes)/(1<<20)/a.total.Seconds())
		}
		p.printf("  %-24s %5dx %10s %10s %10s %10s %10s\n",
			a.name, a.count, fmtDur(a.total),
			fmtDur(quantile(a.durs, 0.50)), fmtDur(quantile(a.durs, 0.99)),
			fmtDur(a.durs[len(a.durs)-1]), mbs)
	}
}

// maxOverlap computes the peak number of concurrently open intervals —
// the effective fetch (or commit) parallelism achieved.
func maxOverlap(recs []obs.TraceRecord) int {
	type edge struct {
		at    int64
		delta int
	}
	var edges []edge
	for _, r := range recs {
		edges = append(edges, edge{r.Start, +1}, edge{r.Start + r.Dur, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta // close before open at a shared instant
	})
	cur, peak := 0, 0
	for _, e := range edges {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// bar renders a 24-cell interval bar for [start,end] within the
// operation's [lo,hi] window.
func bar(start, end, lo, hi int64) string {
	const cells = 24
	if hi <= lo {
		return ""
	}
	clamp := func(v int64) int {
		p := int(float64(v-lo) / float64(hi-lo) * cells)
		if p < 0 {
			p = 0
		}
		if p > cells {
			p = cells
		}
		return p
	}
	from, to := clamp(start), clamp(end)
	if to <= from {
		to = from + 1
		if to > cells {
			from, to = cells-1, cells
		}
	}
	return "[" + strings.Repeat("·", from) + strings.Repeat("█", to-from) + strings.Repeat("·", cells-to) + "]"
}

// quantile sorts in place and reads the q-quantile.
func quantile(durs []time.Duration, q float64) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	i := int(q*float64(len(durs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(durs) {
		i = len(durs) - 1
	}
	return durs[i]
}

func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}
