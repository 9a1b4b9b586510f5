package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// StageSummary aggregates every record sharing one span name.
type StageSummary struct {
	Name  string
	Count int
	// Total is the summed record durations; events (zero duration) are
	// counted but add no time.
	Total time.Duration
	// Chunks sums the records' "chunks" attributes — the per-stage
	// chunk accounting the identity tests check against engine reports
	// (it must be exact however many hash workers contributed to a stage).
	Chunks int64
}

// TraceSummary is the per-stage aggregation of one JSONL trace: what the
// accounting-identity tests count spans with. The human-readable report
// is cmd/tracereport.
type TraceSummary struct {
	Stages []StageSummary
}

// SummarizeTrace aggregates a JSONL trace into per-stage counts, time
// and chunks, keyed by span name and sorted by total time descending.
// Unparsable lines abort with a line-numbered error.
func SummarizeTrace(r io.Reader) (*TraceSummary, error) {
	accs := make(map[string]*StageSummary)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	lineNo := 0
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
		if rec.Name == "trace.open" || rec.Name == "trace.close" {
			continue
		}
		st := accs[rec.Name]
		if st == nil {
			st = &StageSummary{Name: rec.Name}
			accs[rec.Name] = st
		}
		st.Count++
		st.Total += time.Duration(rec.Dur)
		st.Chunks += rec.Attrs["chunks"]
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: trace: %w", err)
	}
	sum := &TraceSummary{}
	for _, st := range accs {
		sum.Stages = append(sum.Stages, *st)
	}
	sort.Slice(sum.Stages, func(i, j int) bool {
		if sum.Stages[i].Total != sum.Stages[j].Total {
			return sum.Stages[i].Total > sum.Stages[j].Total
		}
		return sum.Stages[i].Name < sum.Stages[j].Name
	})
	return sum, nil
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
