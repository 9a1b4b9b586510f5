package restorecache

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hidestore/internal/obs"
)

// TestWriterStallEmitsTraceRecord drives the parallel writer's reorder
// window directly: delivering span seq 1 before seq 0 parks it, and the
// blocking wait for seq 0 is a stall. Exactly one "assembly.stall"
// record must land in the trace, carrying the parked count and the
// sequence the writer was waiting for — and the tracer must stay
// balanced (the record is a stage emit, not an open span).
func TestWriterStallEmitsTraceRecord(t *testing.T) {
	var traceBuf bytes.Buffer
	tracer := obs.NewTracer(&traceBuf)
	restoreSpan := tracer.Start("restore", nil)

	var sink bytes.Buffer
	stats := &Stats{}
	pw := NewParallelWriter(&sink, ParallelOptions{Workers: 2, Tracer: tracer, Span: restoreSpan})
	a := newParallelAssembler(2)
	a.start(pw, stats)

	// Bypass the policy and the worker pool: take two spans as the policy
	// would and feed the writer out of order.
	first, second := a.take(), a.take()
	first.seq, first.buf = 0, []byte("first")
	second.seq, second.buf = 1, []byte("second")
	a.filled <- second
	time.Sleep(20 * time.Millisecond) // the writer is now parked on seq 0
	a.filled <- first
	if err := a.finish(nil); err != nil {
		t.Fatal(err)
	}
	restoreSpan.End()
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	if got := sink.String(); got != "firstsecond" {
		t.Fatalf("writer reordered output: %q", got)
	}
	var stalls []obs.TraceRecord
	var restoreID uint64
	sc := bufio.NewScanner(strings.NewReader(traceBuf.String()))
	for sc.Scan() {
		var rec obs.TraceRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		switch rec.Name {
		case "assembly.stall":
			stalls = append(stalls, rec)
		case "restore":
			restoreID = rec.ID
		case "trace.close":
			if rec.Attrs["open_spans"] != 0 {
				t.Errorf("tracer unbalanced after stall emission: %d open", rec.Attrs["open_spans"])
			}
		}
	}
	if len(stalls) != 1 {
		t.Fatalf("got %d assembly.stall records, want 1", len(stalls))
	}
	st := stalls[0]
	if st.Parent != restoreID {
		t.Errorf("stall parented to %d, want the restore span %d", st.Parent, restoreID)
	}
	if st.Attrs["parked"] != 1 || st.Attrs["seq"] != 0 {
		t.Errorf("stall attrs = %v, want parked 1 / seq 0", st.Attrs)
	}
	if st.Dur < int64(10*time.Millisecond) {
		t.Errorf("stall duration %s implausibly short", time.Duration(st.Dur))
	}
}

// TestWriterNoStallRecordWithoutTracer: with the plane off (no tracer,
// no metrics) the stall path stays dormant — no clock reads.
func TestWriterNoStallRecordWithoutTracer(t *testing.T) {
	var sink bytes.Buffer
	pw := NewParallelWriter(&sink, ParallelOptions{Workers: 2})
	a := newParallelAssembler(2)
	a.start(pw, &Stats{})
	first, second := a.take(), a.take()
	first.seq, first.buf = 0, []byte("a")
	second.seq, second.buf = 1, []byte("b")
	a.filled <- second
	a.filled <- first
	if err := a.finish(nil); err != nil {
		t.Fatal(err)
	}
	if got := sink.String(); got != "ab" {
		t.Fatalf("output %q", got)
	}
}
