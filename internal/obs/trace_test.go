package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// decodeTrace parses a JSONL buffer into records.
func decodeTrace(t *testing.T, data string) []TraceRecord {
	t.Helper()
	var recs []TraceRecord
	sc := bufio.NewScanner(strings.NewReader(data))
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec TraceRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestSpanNestingAndOrdering checks the JSONL output end to end: the
// anchor record comes first, children reference their parent's ID,
// records appear in completion order, and offsets are monotone and
// consistent (a child lies within its parent's interval).
func TestSpanNestingAndOrdering(t *testing.T) {
	var buf strings.Builder
	tr := NewTracer(&buf)

	root := tr.Start("restore", nil)
	child := tr.Start("container.fetch", root)
	child.SetAttr("cid", 7)
	child.End()
	tr.Event("cache.hit", root, map[string]int64{"chunks": 3})
	root.SetAttr("version", 2)
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs := decodeTrace(t, buf.String())
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5 (open, child, event, root, close)", len(recs))
	}
	anchor, childRec, eventRec, rootRec := recs[0], recs[1], recs[2], recs[3]

	if anchor.Name != "trace.open" || anchor.Unix == 0 {
		t.Errorf("first record must be the trace.open anchor with a wall clock, got %+v", anchor)
	}
	if closing := recs[4]; closing.Name != "trace.close" || closing.Unix == 0 || closing.Attrs["open_spans"] != 0 {
		t.Errorf("last record must be a balanced trace.close anchor, got %+v", closing)
	}
	if childRec.Name != "container.fetch" || rootRec.Name != "restore" {
		t.Errorf("completion order violated: %q before %q", childRec.Name, rootRec.Name)
	}
	if childRec.Parent != rootRec.ID {
		t.Errorf("child parent %d != root id %d", childRec.Parent, rootRec.ID)
	}
	if eventRec.Parent != rootRec.ID || eventRec.Dur != 0 {
		t.Errorf("event must be a zero-duration child of root, got %+v", eventRec)
	}
	if rootRec.Parent != 0 {
		t.Errorf("root span must have parent 0, got %d", rootRec.Parent)
	}
	if childRec.Attrs["cid"] != 7 || rootRec.Attrs["version"] != 2 {
		t.Error("attrs lost in serialization")
	}
	// Interval containment: child within root.
	if childRec.Start < rootRec.Start {
		t.Errorf("child starts (%d) before root (%d)", childRec.Start, rootRec.Start)
	}
	if childEnd, rootEnd := childRec.Start+childRec.Dur, rootRec.Start+rootRec.Dur; childEnd > rootEnd {
		t.Errorf("child ends (%d) after root (%d)", childEnd, rootEnd)
	}
}

func TestEmitStage(t *testing.T) {
	var buf strings.Builder
	tr := NewTracer(&buf)
	start := time.Now()
	tr.EmitStage("stage.chunking", nil, start, 123*time.Millisecond,
		map[string]int64{"bytes": 1 << 20})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	recs := decodeTrace(t, buf.String())
	st := recs[1] // after the trace.open anchor, before trace.close
	if st.Name != "stage.chunking" || st.Dur != int64(123*time.Millisecond) {
		t.Errorf("stage record wrong: %+v", st)
	}
	if st.Attrs["bytes"] != 1<<20 {
		t.Error("stage attrs lost")
	}
}

func TestNilTracerAndSpan(t *testing.T) {
	var tr *Tracer
	span := tr.Start("x", nil)
	if span != nil {
		t.Fatal("nil tracer must return a nil span")
	}
	span.SetAttr("k", 1) // must not panic
	span.End()
	tr.Event("e", nil, nil)
	tr.EmitStage("s", nil, time.Now(), time.Second, nil)
	if err := tr.Close(); err != nil {
		t.Errorf("nil tracer Close: %v", err)
	}
}

// failWriter fails after n successful writes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errWriteFailed
	}
	w.n--
	return len(p), nil
}

var errWriteFailed = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "write failed" }

// TestTracerStickyError: a write failure never breaks the traced
// operation — it is reported once, by Close.
func TestTracerStickyError(t *testing.T) {
	tr := NewTracer(&failWriter{n: 1}) // anchor succeeds, everything after fails
	s := tr.Start("op", nil)
	s.End()
	tr.Event("e", nil, nil)
	if err := tr.Close(); err == nil {
		t.Fatal("Close must surface the sticky write error")
	}
}

func TestSummarizeTrace(t *testing.T) {
	var buf strings.Builder
	tr := NewTracer(&buf)
	root := tr.Start("restore", nil)
	for i := 0; i < 3; i++ {
		c := tr.Start("container.fetch", root)
		c.End()
	}
	tr.Event("container.fetch.error", root, nil)
	root.SetAttr("bytes", 4<<20)
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	sum, err := SummarizeTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.SpanCount("container.fetch"); got != 3 {
		t.Errorf("container.fetch count = %d, want 3", got)
	}
	if got := sum.SpanCount("container.fetch.error"); got != 1 {
		t.Errorf("error event count = %d, want 1", got)
	}
	if sum.SpanCount("restore") != 1 {
		t.Error("restore span missing")
	}
}

// TestTraceCloseAnchor: Close writes exactly one closing anchor even
// when called twice, and the anchor reports the open-span imbalance at
// close time so offline validators can flag leaked spans.
func TestTraceCloseAnchor(t *testing.T) {
	var buf strings.Builder
	tr := NewTracer(&buf)
	leaked := tr.Start("op", nil)
	_ = leaked // never ended: simulates an abandoned span
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	recs := decodeTrace(t, buf.String())
	var closes []TraceRecord
	for _, rec := range recs {
		if rec.Name == "trace.close" {
			closes = append(closes, rec)
		}
	}
	if len(closes) != 1 {
		t.Fatalf("got %d trace.close anchors, want exactly 1", len(closes))
	}
	if closes[0].Attrs["open_spans"] != 1 {
		t.Errorf("close anchor open_spans = %d, want 1 (leaked span)", closes[0].Attrs["open_spans"])
	}
	if closes[0].Unix == 0 {
		t.Error("close anchor must carry the wall clock")
	}
	// The summary must tolerate both anchors without counting them.
	sum, err := SummarizeTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if sum.SpanCount("trace.close") != 0 || sum.SpanCount("trace.open") != 0 {
		t.Error("anchors must be excluded from stage aggregation")
	}
}

func TestSummarizeTraceRejectsGarbage(t *testing.T) {
	if _, err := SummarizeTrace(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage line must fail with an error")
	}
}
