package core

import (
	"sort"
	"strconv"
	"sync"
	"testing"

	"hidestore/internal/container"
	"hidestore/internal/fp"
	"hidestore/internal/index"
)

func refs(prefix string, n int) []index.ChunkRef {
	out := make([]index.ChunkRef, n)
	for i := range out {
		out[i] = index.ChunkRef{FP: fp.Of([]byte(prefix + strconv.Itoa(i))), Size: 4096}
	}
	return out
}

func commit(v *IndexView, seg []index.ChunkRef, res []index.Result, next *container.ID) {
	cids := make([]container.ID, len(seg))
	for i, r := range res {
		if r.Duplicate {
			cids[i] = r.CID
			continue
		}
		*next++
		cids[i] = *next
	}
	v.Commit(seg, cids)
}

func TestIndexViewFigure5Cases(t *testing.T) {
	v := NewIndexView(1)
	var next container.ID

	// Version 1: all unique (case one).
	seg := refs("a", 10)
	res := v.Dedup(seg)
	for i, r := range res {
		if r.Duplicate {
			t.Fatalf("chunk %d should be unique", i)
		}
	}
	commit(v, seg, res, &next)
	v.EndVersion()

	// Version 2: same chunks hit T1 and move to T2 (case two); a repeat
	// within the version hits T2 (case three).
	res = v.Dedup(seg)
	for i, r := range res {
		if !r.Duplicate || r.CID == 0 {
			t.Fatalf("chunk %d: %+v, want duplicate with location", i, r)
		}
	}
	res2 := v.Dedup(seg) // T2 hits
	for i, r := range res2 {
		if !r.Duplicate {
			t.Fatalf("repeat chunk %d should hit T2", i)
		}
	}
	commit(v, seg, res, &next)
	v.EndVersion()
	if got := v.Stats().DiskLookups; got != 0 {
		t.Fatalf("DiskLookups = %d, want 0", got)
	}
}

// TestIndexViewEviction: chunks absent from a version are evicted at its
// end (window 1), so re-presenting them later classifies as unique — the
// deliberate trade the paper makes because such returns are rare.
func TestIndexViewEviction(t *testing.T) {
	v := NewIndexView(1)
	var next container.ID
	seg := refs("x", 5)
	res := v.Dedup(seg)
	commit(v, seg, res, &next)
	v.EndVersion()

	// Version 2 contains none of version 1's chunks.
	other := refs("y", 5)
	res = v.Dedup(other)
	commit(v, other, res, &next)
	v.EndVersion()

	// Version 3 re-presents version 1's chunks: they were evicted.
	res = v.Dedup(seg)
	for i, r := range res {
		if r.Duplicate {
			t.Fatalf("evicted chunk %d still classified duplicate", i)
		}
	}
}

// TestIndexViewWindow2 keeps chunks alive across one absent version.
func TestIndexViewWindow2(t *testing.T) {
	v := NewIndexView(2)
	var next container.ID
	seg := refs("flap", 5)
	res := v.Dedup(seg)
	commit(v, seg, res, &next)
	v.EndVersion()

	other := refs("other", 5)
	res = v.Dedup(other)
	commit(v, other, res, &next)
	v.EndVersion()

	// The flapping chunks return after skipping one version: still hot.
	res = v.Dedup(seg)
	for i, r := range res {
		if !r.Duplicate {
			t.Fatalf("window-2 chunk %d evicted too early", i)
		}
	}
}

func TestIndexViewTransientBounded(t *testing.T) {
	v := NewIndexView(1)
	var next container.ID
	// Ten versions of disjoint chunks: the cache must stay bounded by one
	// window's worth, not grow with the dataset.
	perVersion := 100
	for ver := 0; ver < 10; ver++ {
		seg := refs("v"+strconv.Itoa(ver)+"-", perVersion)
		res := v.Dedup(seg)
		commit(v, seg, res, &next)
		v.EndVersion()
	}
	if got, want := v.TransientBytes(), int64(perVersion)*EntryBytes; got > want {
		t.Fatalf("TransientBytes = %d, want ≤ %d (window-bounded)", got, want)
	}
	if v.MemoryBytes() != 0 {
		t.Fatal("persistent MemoryBytes must be 0")
	}
}

func TestIndexViewName(t *testing.T) {
	if NewIndexView(0).Name() != "hidestore" {
		t.Fatal("wrong name")
	}
}

func TestIndexViewEvictedPreview(t *testing.T) {
	v := NewIndexView(1)
	var next container.ID
	seg := refs("e", 3)
	res := v.Dedup(seg)
	commit(v, seg, res, &next)
	v.EndVersion()
	other := refs("f", 3)
	res = v.Dedup(other)
	commit(v, other, res, &next)
	// Before EndVersion, the would-be-cold set is version 1's chunks.
	if got := len(v.Evicted()); got != 3 {
		t.Fatalf("Evicted preview = %d chunks, want 3", got)
	}
}

func TestLookupOneMatchesDedup(t *testing.T) {
	// The single-chunk fast path must agree with the batch path.
	a := NewIndexView(1)
	b := NewIndexView(1)
	var next container.ID
	seg := refs("agree", 50)
	resBatch := a.Dedup(seg)
	commit(a, seg, resBatch, &next)
	a.EndVersion()
	for _, c := range seg {
		if _, dup := b.lookupOne(c.FP, c.Size); dup {
			t.Fatal("fresh cache claimed a duplicate")
		}
		next++
		b.commitOne(c.FP, next)
	}
	b.EndVersion()
	// Second version: both must classify every chunk as duplicate.
	resBatch = a.Dedup(seg)
	for i, c := range seg {
		cid, dup := b.lookupOne(c.FP, c.Size)
		if dup != resBatch[i].Duplicate {
			t.Fatalf("chunk %d: paths disagree", i)
		}
		if !dup || cid == 0 {
			t.Fatalf("chunk %d: not found by fast path", i)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.Duplicates != sb.Duplicates || sa.Uniques != sb.Uniques {
		t.Fatalf("stats diverge: %+v vs %+v", sa, sb)
	}
}

// TestIndexViewShardHammer drives the sharded cache the way the backup
// pipeline does — HashWorkers×4 goroutines probing speculatively while
// a sink goroutine classifies and commits — with a concurrent Stats and
// TransientBytes scrape. Run under -race, this is the shard-contention
// safety proof for the core cache.
func TestIndexViewShardHammer(t *testing.T) {
	v := newIndexViewSharded(1, 8)
	const probers = 16 // HashWorkers (4) × 4
	seg := refs("hammer", 2000)

	var wg, scrape sync.WaitGroup
	stop := make(chan struct{})
	scrape.Add(1)
	go func() {
		defer scrape.Done()
		for {
			select {
			case <-stop:
				return
			default:
				v.Stats()
				v.TransientBytes()
			}
		}
	}()
	for w := 0; w < probers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				for _, c := range seg {
					v.probe(c.FP)
				}
			}
		}(w)
	}
	// The sink: in-order classification and commit, concurrent with the
	// probers — exactly the engine's arrangement.
	var next container.ID
	for round := 0; round < 3; round++ {
		for _, c := range seg {
			if _, hit := v.probe(c.FP); hit {
				v.touch(c.FP, c.Size)
				continue
			}
			if _, dup := v.lookupOne(c.FP, c.Size); !dup {
				next++
				v.commitOne(c.FP, next)
			}
		}
	}
	wg.Wait()
	close(stop)
	scrape.Wait()

	st := v.Stats()
	if want := uint64(3 * len(seg)); st.Lookups != want {
		t.Fatalf("Lookups = %d, want %d (probes must not count as lookups)", st.Lookups, want)
	}
	if want := uint64(2 * len(seg)); st.Duplicates != want {
		t.Fatalf("Duplicates = %d, want %d", st.Duplicates, want)
	}
	if want := uint64(len(seg)); st.Uniques != want {
		t.Fatalf("Uniques = %d, want %d", st.Uniques, want)
	}
}

// TestIndexViewShardedMatchesSingle pins shard transparency: the same
// classification sequence against a 1-shard and a 16-shard cache must
// produce identical verdicts, stats, and eviction sets.
func TestIndexViewShardedMatchesSingle(t *testing.T) {
	one := newIndexViewSharded(1, 1)
	many := newIndexViewSharded(1, 16)
	var n1, n2 container.ID
	for ver := 0; ver < 3; ver++ {
		seg := refs("match"+strconv.Itoa(ver%2), 300) // alternate so evictions happen
		r1 := one.Dedup(seg)
		r2 := many.Dedup(seg)
		for i := range seg {
			if r1[i].Duplicate != r2[i].Duplicate || r1[i].CID != r2[i].CID {
				t.Fatalf("v%d chunk %d: 1-shard %+v, 16-shard %+v", ver, i, r1[i], r2[i])
			}
		}
		commit(one, seg, r1, &n1)
		commit(many, seg, r2, &n2)
		e1, e2 := one.Evicted(), many.Evicted()
		sort.Slice(e1, func(i, j int) bool { return e1[i].Less(e1[j]) })
		sort.Slice(e2, func(i, j int) bool { return e2[i].Less(e2[j]) })
		if len(e1) != len(e2) {
			t.Fatalf("v%d: eviction sets differ in size: %d vs %d", ver, len(e1), len(e2))
		}
		for i := range e1 {
			if e1[i] != e2[i] {
				t.Fatalf("v%d: eviction sets differ at %d", ver, i)
			}
		}
		one.EndVersion()
		many.EndVersion()
	}
	if s1, s2 := one.Stats(), many.Stats(); s1 != s2 {
		t.Fatalf("stats diverge:\n1-shard  %+v\n16-shard %+v", s1, s2)
	}
	if one.TransientBytes() != many.TransientBytes() {
		t.Fatal("transient footprint diverges between shard counts")
	}
}

// BenchmarkIndexViewProbe measures the concurrent read fast path at
// increasing shard counts (make microbench).
func BenchmarkIndexViewProbe(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run("shards"+strconv.Itoa(shards), func(b *testing.B) {
			v := newIndexViewSharded(1, shards)
			seg := refs("bench", 4096)
			var next container.ID
			for _, c := range seg {
				next++
				v.commitOne(c.FP, next)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					v.probe(seg[i%len(seg)].FP)
					i++
				}
			})
		})
	}
}
