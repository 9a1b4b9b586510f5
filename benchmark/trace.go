package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call batch into a layer. Spans are recorded by the
// benchmark around the calls it makes into public functions; nothing inside
// the program is instrumented. All spans come from one goroutine, so the
// parent of a span is simply the span open when it began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a round root
	Name   string `json:"name"`
	Round  int    `json:"round"`
	Start  int64  `json:"start"` // ns since the tracer was created
	End    int64  `json:"end"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// rootPrefix names the round roots: every other span has a parent.
const rootPrefix = "round."

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the end-to-end rounds run.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
	round int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginRound opens a root span; kind is "setup", "layers" or "engine".
func (t *tracer) beginRound(kind string) int {
	if t == nil {
		return 0
	}
	t.round++
	return t.begin(rootPrefix + kind)
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Round: t.round})
	t.open = append(t.open, id)
	t.spans[id-1].Start = int64(time.Since(t.t0))
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int, bytes int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("benchmark: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].End = now
	t.spans[id-1].Bytes = bytes
}

// layerStat aggregates the spans of one name within one round.
type layerStat struct {
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	// SelfS is the busy time of the layer itself: its spans minus the part
	// their direct children cover.
	SelfS float64 `json:"self_s"`
	Bytes int64   `json:"bytes"`
}

// roundStats aggregates the spans of one round by name.
func (t *tracer) roundStats(round int) map[string]layerStat {
	children := make(map[int]int64) // parent ID -> ns covered by direct children
	for _, s := range t.spans {
		if s.Round == round && s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]layerStat)
	for _, s := range t.spans {
		if s.Round != round {
			continue
		}
		st := out[s.Name]
		st.Calls++
		st.TotalS += float64(s.End-s.Start) / 1e9
		st.SelfS += float64(s.End-s.Start-children[s.ID]) / 1e9
		st.Bytes += s.Bytes
		out[s.Name] = st
	}
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
