package rewrite

import (
	"strconv"
	"testing"

	"hidestore/internal/container"
	"hidestore/internal/fp"
)

// dupChunk builds a duplicate chunk of size bytes living in cid.
func dupChunk(name string, size uint32, cid container.ID) Chunk {
	return Chunk{FP: fp.Of([]byte(name)), Size: size, Duplicate: true, CID: cid}
}

func uniqueChunk(name string, size uint32) Chunk {
	return Chunk{FP: fp.Of([]byte(name)), Size: size}
}

// segSpread builds a segment with n duplicates spread across k containers.
func segSpread(n, k int, size uint32) []Chunk {
	seg := make([]Chunk, n)
	for i := range seg {
		seg[i] = dupChunk("spread-"+strconv.Itoa(i), size, container.ID(i%k+1))
	}
	return seg
}

func countTrue(plan []bool) int {
	n := 0
	for _, b := range plan {
		if b {
			n++
		}
	}
	return n
}

func TestNewFactory(t *testing.T) {
	for _, name := range []string{"none", "capping", "fbw"} {
		r, err := New(name)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if r.Name() != name {
			t.Fatalf("Name = %q, want %q", r.Name(), name)
		}
	}
	if r, err := New(""); err != nil || r.Name() != "none" {
		t.Fatal("empty name should yield the none rewriter")
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("unknown scheme should fail")
	}
}

func TestNoneNeverRewrites(t *testing.T) {
	r := NewNone()
	seg := segSpread(100, 50, 4096)
	plan := r.Plan(seg)
	if countTrue(plan) != 0 {
		t.Fatal("none rewrote chunks")
	}
	st := r.Stats()
	if st.Duplicates != 100 || st.Rewritten != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCappingUnderCapUntouched(t *testing.T) {
	r := NewCapping(10)
	seg := segSpread(100, 10, 4096) // exactly 10 containers
	if countTrue(r.Plan(seg)) != 0 {
		t.Fatal("segment within cap must not be rewritten")
	}
}

func TestCappingEnforcesCap(t *testing.T) {
	r := NewCapping(5)
	// 20 containers referenced; container i contributes i+1 chunks so the
	// ranking is deterministic: containers 16..20 (by contribution) kept.
	var seg []Chunk
	for cid := 1; cid <= 20; cid++ {
		for j := 0; j <= cid; j++ {
			seg = append(seg, dupChunk("c"+strconv.Itoa(cid)+"-"+strconv.Itoa(j), 4096, container.ID(cid)))
		}
	}
	plan := r.Plan(seg)
	// Surviving containers must number exactly Cap.
	kept := make(map[container.ID]struct{})
	for i, ch := range seg {
		if !plan[i] {
			kept[ch.CID] = struct{}{}
		}
	}
	if len(kept) != 5 {
		t.Fatalf("kept %d containers, want 5", len(kept))
	}
	// The kept ones are the top contributors (16..20).
	for cid := container.ID(16); cid <= 20; cid++ {
		if _, ok := kept[cid]; !ok {
			t.Fatalf("top contributor %d was rewritten", cid)
		}
	}
	if r.Stats().Rewritten == 0 {
		t.Fatal("stats should record rewrites")
	}
}

func TestCappingIgnoresUniquesAndPending(t *testing.T) {
	r := NewCapping(1)
	seg := []Chunk{
		uniqueChunk("u1", 4096),
		dupChunk("d-pending", 4096, 0), // intra-session duplicate
		dupChunk("d1", 4096, 1),
		dupChunk("d2", 4096, 2),
	}
	plan := r.Plan(seg)
	if plan[0] || plan[1] {
		t.Fatal("uniques and pending duplicates must never be rewritten")
	}
	if countTrue(plan) != 1 {
		t.Fatalf("want exactly 1 rewrite, got %d", countTrue(plan))
	}
}

func TestFBWKeepsWindowWarmContainers(t *testing.T) {
	f := NewFBW()
	f.BaseCap = 2
	f.MinWindowBytes = 10 * 4096
	// Segment 1 uses container 1 heavily (warm).
	var seg1 []Chunk
	for i := 0; i < 20; i++ {
		seg1 = append(seg1, dupChunk("w"+strconv.Itoa(i), 4096, 1))
	}
	f.Plan(seg1)
	// Segment 2 touches container 1 lightly plus many cold containers.
	var seg2 []Chunk
	seg2 = append(seg2, dupChunk("light", 4096, 1))
	for cid := 2; cid <= 10; cid++ {
		seg2 = append(seg2, dupChunk("cold"+strconv.Itoa(cid), 4096, container.ID(cid)))
	}
	plan := f.Plan(seg2)
	if plan[0] {
		t.Fatal("window-warm container 1 must be kept")
	}
	// Cold containers exceed BaseCap=2 → some rewritten.
	if countTrue(plan) != len(seg2)-1-2 {
		t.Fatalf("rewrites = %d, want %d", countTrue(plan), len(seg2)-3)
	}
}

func TestFBWWindowSlides(t *testing.T) {
	f := NewFBW()
	f.WindowSegments = 2
	for i := 0; i < 5; i++ {
		f.Plan(segSpread(10, 2, 4096))
	}
	if len(f.window) != 2 {
		t.Fatalf("window length %d, want 2", len(f.window))
	}
	f.EndVersion()
	if f.window != nil {
		t.Fatal("EndVersion should clear the window")
	}
}

func TestStatsAccumulation(t *testing.T) {
	r := NewCapping(1)
	seg := segSpread(10, 5, 1000)
	r.Plan(seg)
	st := r.Stats()
	if st.Duplicates != 10 {
		t.Fatalf("Duplicates = %d", st.Duplicates)
	}
	if st.DuplicateBytes != 10000 {
		t.Fatalf("DuplicateBytes = %d", st.DuplicateBytes)
	}
	if st.SegmentsPlanned != 1 {
		t.Fatalf("SegmentsPlanned = %d", st.SegmentsPlanned)
	}
	if st.RewrittenBytes != uint64(st.Rewritten)*1000 {
		t.Fatalf("RewrittenBytes inconsistent: %+v", st)
	}
}
