package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"hidestore/internal/metrics"
)

// StageSummary aggregates every record sharing one span name.
type StageSummary struct {
	Name  string
	Count int
	// Total, Min, Max, P50 and P99 are over record durations. Events
	// (zero duration) are counted but excluded from latency stats.
	Total time.Duration
	Min   time.Duration
	Max   time.Duration
	P50   time.Duration
	P99   time.Duration
	// Bytes sums the records' "bytes" attributes; MBPerSec is
	// Bytes over Total when both are present.
	Bytes    int64
	MBPerSec float64
	// Chunks sums the records' "chunks" attributes — the per-stage
	// chunk accounting the identity tests check against engine reports
	// (it must be exact however many hash workers contributed to a stage).
	Chunks int64
}

// TraceSummary is the per-stage aggregation of one JSONL trace.
type TraceSummary struct {
	Records int
	Spans   int
	Events  int
	// Wall is the span of trace time covered: the latest record end
	// minus the earliest record start, per trace anchor. Traces from
	// several processes (append mode) are summed over their segments'
	// extents, approximated by the max end offset seen.
	Wall   time.Duration
	Stages []StageSummary
}

// SummarizeTrace aggregates a JSONL trace into per-stage latency and
// throughput statistics, keyed by span name and sorted by total time
// descending. Unparsable lines abort with a line-numbered error.
func SummarizeTrace(r io.Reader) (*TraceSummary, error) {
	type acc struct {
		durs   []time.Duration
		total  time.Duration
		bytes  int64
		chunks int64
		count  int
	}
	accs := make(map[string]*acc)
	sum := &TraceSummary{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	lineNo := 0
	var maxEnd int64
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec TraceRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		sum.Records++
		if end := rec.Start + rec.Dur; end > maxEnd {
			maxEnd = end
		}
		if rec.Name == "trace.open" || rec.Name == "trace.close" {
			continue
		}
		a := accs[rec.Name]
		if a == nil {
			a = &acc{}
			accs[rec.Name] = a
		}
		a.count++
		if rec.Dur == 0 {
			sum.Events++
		} else {
			sum.Spans++
			a.durs = append(a.durs, time.Duration(rec.Dur))
			a.total += time.Duration(rec.Dur)
		}
		if b, ok := rec.Attrs["bytes"]; ok {
			a.bytes += b
		}
		if c, ok := rec.Attrs["chunks"]; ok {
			a.chunks += c
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: trace: %w", err)
	}
	sum.Wall = time.Duration(maxEnd)
	for name, a := range accs {
		st := StageSummary{Name: name, Count: a.count, Total: a.total, Bytes: a.bytes, Chunks: a.chunks}
		if len(a.durs) > 0 {
			sort.Slice(a.durs, func(i, j int) bool { return a.durs[i] < a.durs[j] })
			st.Min = a.durs[0]
			st.Max = a.durs[len(a.durs)-1]
			st.P50 = quantileDur(a.durs, 0.50)
			st.P99 = quantileDur(a.durs, 0.99)
		}
		if a.bytes > 0 && a.total > 0 {
			st.MBPerSec = float64(a.bytes) / (1 << 20) / a.total.Seconds()
		}
		sum.Stages = append(sum.Stages, st)
	}
	sort.Slice(sum.Stages, func(i, j int) bool {
		if sum.Stages[i].Total != sum.Stages[j].Total {
			return sum.Stages[i].Total > sum.Stages[j].Total
		}
		return sum.Stages[i].Name < sum.Stages[j].Name
	})
	return sum, nil
}

// quantileDur reads the q-quantile from an ascending slice.
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Render formats the summary as aligned tables via internal/metrics.
func (s *TraceSummary) Render() string {
	t := metrics.NewTable(
		fmt.Sprintf("Trace summary: %d records (%d spans, %d events) over %s",
			s.Records, s.Spans, s.Events, s.Wall.Round(time.Microsecond)),
		"stage", "count", "total", "p50", "p99", "max", "MB/s")
	for _, st := range s.Stages {
		mbs := ""
		if st.MBPerSec > 0 {
			mbs = metrics.FormatFloat(st.MBPerSec)
		}
		t.AddRow(st.Name,
			fmt.Sprintf("%d", st.Count),
			fmtDur(st.Total),
			fmtDur(st.P50),
			fmtDur(st.P99),
			fmtDur(st.Max),
			mbs)
	}
	return t.Render()
}

// SpanCount returns how many records carry the given span name (the
// conformance tests cross-check container.fetch counts against the
// restore accounting).
func (s *TraceSummary) SpanCount(name string) int {
	for _, st := range s.Stages {
		if st.Name == name {
			return st.Count
		}
	}
	return 0
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}
