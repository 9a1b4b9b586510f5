package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// manifest mirrors the root BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func manifestDefs(ms []manifestMetric) []metricDef {
	defs := make([]metricDef, len(ms))
	for i, m := range ms {
		defs[i] = metricDef(m)
	}
	return defs
}

// TestManifestMatchesCode keeps BENCHMARK.json and the tables in the code
// equal: same workloads, same metrics with unit, direction and bound.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, benchNames()) {
		t.Errorf("workloads: BENCHMARK.json has %v, code has %v", names, benchNames())
	}
	if got := manifestDefs(m.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, code has %v", got, endToEnd)
	}
	if got := manifestDefs(m.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %v, code has %v", got, perLayer)
	}
}

func metricNames(defs []metricDef) []string {
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload at 3 versions of 1 MB, end to end and traced,
// and checks that the final line carries exactly the declared metrics.
func TestSmoke(t *testing.T) {
	for _, b := range benches {
		for _, trace := range []bool{false, true} {
			name := b.name
			defs := endToEnd
			if trace {
				name += "/trace"
				defs = perLayer
			}
			t.Run(name, func(t *testing.T) {
				out := t.TempDir()
				opts := options{seed: 7, rounds: 1, trace: trace, outDir: out, chain: chain{versions: 3, versionMB: 1}}
				res, err := runBench(context.Background(), b, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				line := res.final()
				var got []string
				for name, m := range line.Metrics {
					got = append(got, name)
					if m.Unit != res.Metrics[name].Unit {
						t.Errorf("%s: unit %q", name, m.Unit)
					}
				}
				sort.Strings(got)
				if want := metricNames(defs); !reflect.DeepEqual(got, want) {
					t.Errorf("metrics %v, want %v", got, want)
				}
				left := 0 // the temporary stores are gone after the run
				if trace {
					left = 1
					checkSpans(t, filepath.Join(out, "trace-"+b.name+".jsonl"))
				} else {
					for name, m := range line.Metrics {
						if m.Value <= 0 {
							t.Errorf("%s = %v, end-to-end metrics are never 0", name, m.Value)
						}
					}
				}
				entries, err := os.ReadDir(out)
				if err != nil {
					t.Fatal(err)
				}
				if len(entries) != left {
					t.Errorf("out dir holds %d entries after the run, want %d", len(entries), left)
				}
			})
		}
	}
}

// checkSpans parses a span file: every span has a parent recorded before it,
// or is a round root.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[int]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span %q: %v", sc.Text(), err)
		}
		root := strings.HasPrefix(s.Name, rootPrefix)
		if root != (s.Parent == 0) || (!root && !seen[s.Parent]) {
			t.Errorf("span %+v: neither a round root nor the child of an earlier span", s)
		}
		if s.End < s.Start || s.Round == 0 {
			t.Errorf("span %+v: bad interval or round", s)
		}
		seen[s.ID] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Error("no spans")
	}
}

func TestCompareSink(t *testing.T) {
	want := []byte("the quick brown fox jumps over the lazy dog")
	write := func(data []byte) *compareSink {
		s := &compareSink{want: want}
		// Two writes, as a restore writes span by span.
		s.Write(data[:len(data)/2])
		s.Write(data[len(data)/2:])
		return s
	}
	if !write(want).ok() {
		t.Error("identical bytes flagged")
	}
	corrupt := append([]byte(nil), want...)
	corrupt[len(corrupt)-3] ^= 1
	if write(corrupt).ok() {
		t.Error("corrupted byte not flagged")
	}
	if write(want[:len(want)-1]).ok() {
		t.Error("short stream not flagged")
	}
	if write(append(append([]byte(nil), want...), 'x')).ok() {
		t.Error("long stream not flagged")
	}
}

func TestMaterializeSeed(t *testing.T) {
	c := chain{versions: 3, versionMB: 1}
	a, err := materialize("kernel", 5, c)
	if err != nil {
		t.Fatal(err)
	}
	same, _ := materialize("kernel", 5, c)
	other, _ := materialize("kernel", 6, c)
	if len(a) != c.versions {
		t.Fatalf("%d versions, want %d", len(a), c.versions)
	}
	if !reflect.DeepEqual(a, same) {
		t.Error("same seed gave different streams")
	}
	for v := range a {
		if bytes.Equal(a[v], other[v]) {
			t.Errorf("version %d: different seeds gave the same stream", v+1)
		}
	}
}

func TestStats(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	var hundred []float64
	for i := 100; i >= 1; i-- {
		hundred = append(hundred, float64(i))
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(hundred, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	for n, want := range map[int]float64{1000: 99, 200: 95, 120: 90, 100: 90, 80: 75, 39: 50} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	s := summarize([]float64{3, 9, 1})
	if !reflect.DeepEqual(s, summary{Median: 3, Min: 1, Max: 9, N: 3, Values: []float64{3, 9, 1}}) {
		t.Errorf("summarize = %+v", s)
	}
}

// TestSelfTime: a layer's self time is its span minus its direct children.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Parent: 0, Name: "round.layers", Round: 1, Start: 0, End: 100e9},
		{ID: 2, Parent: 1, Name: "a", Round: 1, Start: 0, End: 60e9},
		{ID: 3, Parent: 2, Name: "b", Round: 1, Start: 10e9, End: 30e9},
		{ID: 4, Parent: 3, Name: "c", Round: 1, Start: 10e9, End: 15e9},
		{ID: 5, Parent: 2, Name: "b", Round: 1, Start: 40e9, End: 50e9},
		{ID: 6, Parent: 0, Name: "round.layers", Round: 2, Start: 100e9, End: 101e9},
	}
	got := tr.roundStats(1)
	want := map[string]layerStat{
		"round.layers": {Calls: 1, TotalS: 100, SelfS: 40},
		"a":            {Calls: 1, TotalS: 60, SelfS: 30},
		"b":            {Calls: 2, TotalS: 30, SelfS: 25},
		"c":            {Calls: 1, TotalS: 5, SelfS: 5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("roundStats = %+v, want %+v", got, want)
	}
}
