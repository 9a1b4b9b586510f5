package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hidestore/internal/obs"
)

// TestCommittedSmokeTrace reconstructs the balanced span tree from the
// committed smoke trace (a real instrumented backup/restore run) — the
// acceptance criterion for the trace format staying parseable.
func TestCommittedSmokeTrace(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fetches", "2", "testdata/smoke.jsonl"}, &out); err != nil {
		t.Fatalf("committed smoke trace rejected: %v", err)
	}
	text := out.String()
	for _, want := range []string{
		"trace OK", "backup", "restore", "container.fetch",
		"fetch timeline", "per-stage breakdown", "stage coverage",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// writeTrace writes a JSONL trace file and returns its path.
func writeTrace(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMultiSegmentAppendMode: one file accumulating two invocations
// (each with its own restarting ID sequence) validates as two
// segments — duplicate IDs across segments are expected, not errors.
func TestMultiSegmentAppendMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	for i := 0; i < 2; i++ {
		tr, err := obs.OpenTraceFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s := tr.Start("restore", nil)
		tr.EmitStage("container.fetch", s, time.Now(), time.Millisecond, map[string]int64{"cid": 7})
		s.End()
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	if err := run([]string{path}, &out); err != nil {
		t.Fatalf("append-mode trace rejected: %v", err)
	}
	if !strings.Contains(out.String(), "2 segment(s)") {
		t.Errorf("expected two segments:\n%s", out.String())
	}
}

// TestStallAttribution: a parallel-restore trace with assembly.stall
// records gets the reorder-window attribution line, one whose forward
// pointers were followed the work that took, one whose recipe the kept
// set served says so, and one that read resident images how many of its
// reads they were.
func TestStallAttribution(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tr, err := obs.OpenTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Start("restore", nil)
	now := time.Now()
	tr.EmitStage("recipe.read", s, now, time.Millisecond, map[string]int64{"version": 1, "kept": 1})
	tr.EmitStage("recipe.flatten", s, now, time.Millisecond,
		map[string]int64{"version": 1, "wanted": 40, "recipes_read": 3, "recipes_written": 1})
	tr.EmitStage("container.fetch", s, now, 2*time.Millisecond, map[string]int64{"cid": 1})
	tr.EmitStage("container.fetch", s, now, 3*time.Millisecond, map[string]int64{"cid": 2})
	tr.EmitStage("assembly.stall", s, now, time.Millisecond, map[string]int64{"parked": 2, "seq": 5})
	s.SetAttr("container_reads", 2)
	s.SetAttr("resident_reads", 1)
	s.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "reorder-window stalls: 1") {
		t.Errorf("missing stall attribution:\n%s", text)
	}
	if !strings.Contains(text, "max overlap 2") {
		t.Errorf("missing fetch-overlap estimate:\n%s", text)
	}
	if !strings.Contains(text, "recipe v1: read from the kept set") {
		t.Errorf("missing kept recipe line:\n%s", text)
	}
	if !strings.Contains(text, "resolve: 3 recipes, 40 wanted, 1 written") {
		t.Errorf("missing resolve work line:\n%s", text)
	}
	if !strings.Contains(text, "resident 1 of 2 reads") {
		t.Errorf("missing resident read line:\n%s", text)
	}
}

// TestCommitTimeline: a backup's container puts run several at a time on
// the commit plane, so their spans overlap; the validator accepts that
// and the waterfall reports the overlap next to the engine's own wait.
func TestCommitTimeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tr, err := obs.OpenTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Start("backup", nil)
	now := time.Now()
	for cid := int64(1); cid <= 3; cid++ {
		tr.EmitStage("container.flush.async", s, now, 4*time.Millisecond, map[string]int64{"container": cid})
	}
	tr.EmitStage("container.flush.async", s, now.Add(10*time.Millisecond), time.Millisecond, map[string]int64{"container": 4})
	tr.EmitStage("stage.commit_wait", s, now, 2*time.Millisecond, nil)
	s.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{path}, &out); err != nil {
		t.Fatalf("overlapping commit spans rejected: %v", err)
	}
	text := out.String()
	for _, want := range []string{"commit timeline: 4 container puts", "max overlap 3", "stage.commit_wait"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestStageThroughput: the segment-wide table prices a stage that says how
// many bytes it moved in MB/s over its summed time, and leaves the cell
// empty for one that does not.
func TestStageThroughput(t *testing.T) {
	path := writeTrace(t,
		`{"id":1,"span":"trace.open","start_ns":0,"dur_ns":0,"unix":1700000000}`,
		`{"id":2,"span":"restore","start_ns":0,"dur_ns":1000000000}`,
		`{"id":3,"par":2,"span":"restore.sink","start_ns":0,"dur_ns":250000000,"attrs":{"bytes":4194304}}`,
		`{"id":4,"par":2,"span":"restore.sink","start_ns":250000000,"dur_ns":250000000,"attrs":{"bytes":4194304}}`,
		`{"id":5,"par":2,"span":"recipe.read","start_ns":500000000,"dur_ns":1000000}`,
		`{"id":6,"span":"trace.close","start_ns":1000000000,"unix":1700000001,"attrs":{"open_spans":0}}`,
	)
	var out strings.Builder
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(out.String(), "per-stage breakdown")
	if !ok {
		t.Fatalf("no segment-wide table:\n%s", out.String())
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(table, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows[f[0]] = f
		}
	}
	// stage count total p50 p99 max MB/s: 8 MB over 500 ms of summed
	// stage time.
	if got := rows["restore.sink"]; len(got) != 7 || got[6] != "16.0" {
		t.Errorf("restore.sink row %q, want MB/s 16.0:\n%s", got, table)
	}
	if got := rows["recipe.read"]; len(got) != 6 {
		t.Errorf("recipe.read row %q should have no MB/s cell:\n%s", got, table)
	}
}

func TestMalformedInputsExitNonzero(t *testing.T) {
	cases := map[string][]string{
		"garbage line": {
			`{"id":1,"span":"trace.open","start_ns":0,"dur_ns":0,"unix":1700000000}`,
			`not json`,
		},
		"record before open anchor": {
			`{"id":1,"span":"restore","start_ns":0,"dur_ns":5}`,
		},
		"missing close anchor": {
			`{"id":1,"span":"trace.open","start_ns":0,"dur_ns":0,"unix":1700000000}`,
			`{"id":2,"span":"restore","start_ns":0,"dur_ns":5}`,
		},
		"unbalanced spans": {
			`{"id":1,"span":"trace.open","start_ns":0,"dur_ns":0,"unix":1700000000}`,
			`{"id":3,"span":"trace.close","start_ns":9,"unix":1700000001,"attrs":{"open_spans":2}}`,
		},
		"duplicate span id": {
			`{"id":1,"span":"trace.open","start_ns":0,"dur_ns":0,"unix":1700000000}`,
			`{"id":2,"span":"restore","start_ns":0,"dur_ns":5}`,
			`{"id":2,"span":"backup","start_ns":6,"dur_ns":5}`,
			`{"id":3,"span":"trace.close","start_ns":12,"unix":1700000001,"attrs":{"open_spans":0}}`,
		},
		"unknown parent": {
			`{"id":1,"span":"trace.open","start_ns":0,"dur_ns":0,"unix":1700000000}`,
			`{"id":2,"par":99,"span":"container.fetch","start_ns":0,"dur_ns":5}`,
			`{"id":3,"span":"trace.close","start_ns":9,"unix":1700000001,"attrs":{"open_spans":0}}`,
		},
		"open without wall clock": {
			`{"id":1,"span":"trace.open","start_ns":0,"dur_ns":0}`,
		},
		"record after close": {
			`{"id":1,"span":"trace.open","start_ns":0,"dur_ns":0,"unix":1700000000}`,
			`{"id":2,"span":"trace.close","start_ns":5,"unix":1700000001,"attrs":{"open_spans":0}}`,
			`{"id":3,"span":"restore","start_ns":6,"dur_ns":5}`,
		},
		"negative duration": {
			`{"id":1,"span":"trace.open","start_ns":0,"dur_ns":0,"unix":1700000000}`,
			`{"id":2,"span":"restore","start_ns":0,"dur_ns":-5}`,
			`{"id":3,"span":"trace.close","start_ns":9,"unix":1700000001,"attrs":{"open_spans":0}}`,
		},
		"empty file": {``},
	}
	for name, lines := range cases {
		t.Run(name, func(t *testing.T) {
			var out strings.Builder
			err := run([]string{writeTrace(t, lines...)}, &out)
			if err == nil {
				t.Fatalf("malformed input accepted:\n%s", out.String())
			}
		})
	}
}

func TestUsageErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Fatal("no-argument invocation must fail")
	}
	if err := run([]string{filepath.Join(t.TempDir(), "missing.jsonl")}, &out); err == nil {
		t.Fatal("missing file must fail")
	}
}
