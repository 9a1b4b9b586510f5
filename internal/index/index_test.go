package index_test

import (
	"strconv"
	"testing"

	"hidestore/internal/container"
	"hidestore/internal/fp"
	"hidestore/internal/index"
	"hidestore/internal/index/ddfs"
	"hidestore/internal/index/silo"
	"hidestore/internal/index/sparse"
)

// makeIndexes builds one of each baseline index for the conformance suite.
func makeIndexes(t *testing.T) map[string]index.Index {
	t.Helper()
	d, err := ddfs.New(ddfs.Options{ExpectedChunks: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sparse.New(sparse.Options{SampleBits: 2})
	if err != nil {
		t.Fatal(err)
	}
	si, err := silo.New(silo.Options{SegmentsPerBlock: 4})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]index.Index{"ddfs": d, "sparse": sp, "silo": si}
}

func segment(version, start, n int) []index.ChunkRef {
	seg := make([]index.ChunkRef, n)
	for i := 0; i < n; i++ {
		data := []byte("chunk-" + strconv.Itoa(start+i))
		_ = version
		seg[i] = index.ChunkRef{FP: fp.Of(data), Size: uint32(1000 + i)}
	}
	return seg
}

// commitAll assigns sequential container IDs to unique chunks and commits.
func commitAll(ix index.Index, seg []index.ChunkRef, res []index.Result, nextCID *container.ID) []container.ID {
	cids := make([]container.ID, len(seg))
	session := make(map[fp.FP]container.ID)
	for i, r := range res {
		switch {
		case !r.Duplicate:
			*nextCID++
			cids[i] = *nextCID
			session[seg[i].FP] = cids[i]
		case r.CID != 0:
			cids[i] = r.CID
		default:
			cids[i] = session[seg[i].FP]
		}
	}
	ix.Commit(seg, cids)
	return cids
}

func TestFreshChunksAreUnique(t *testing.T) {
	for name, ix := range makeIndexes(t) {
		t.Run(name, func(t *testing.T) {
			seg := segment(1, 0, 100)
			res := ix.Dedup(seg)
			if len(res) != len(seg) {
				t.Fatalf("got %d results, want %d", len(res), len(seg))
			}
			for i, r := range res {
				if r.Duplicate {
					t.Fatalf("chunk %d misclassified as duplicate on empty index", i)
				}
			}
			st := ix.Stats()
			if st.Uniques != 100 || st.Duplicates != 0 {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}

// TestExactRededup stores a segment then re-deduplicates it: every scheme
// must find all duplicates when the repeated segment is identical (this is
// the adjacent-version redundancy case that all schemes handle).
func TestExactRededup(t *testing.T) {
	for name, ix := range makeIndexes(t) {
		t.Run(name, func(t *testing.T) {
			var next container.ID
			seg := segment(1, 0, 200)
			res := ix.Dedup(seg)
			commitAll(ix, seg, res, &next)
			ix.EndVersion()

			res2 := ix.Dedup(seg)
			dups := 0
			for _, r := range res2 {
				if r.Duplicate {
					dups++
				}
			}
			if dups != len(seg) {
				t.Fatalf("re-dedup found %d/%d duplicates", dups, len(seg))
			}
		})
	}
}

// TestDuplicateCIDsResolve verifies that duplicates come back with the
// container ID recorded at commit time.
func TestDuplicateCIDsResolve(t *testing.T) {
	for name, ix := range makeIndexes(t) {
		t.Run(name, func(t *testing.T) {
			var next container.ID
			seg := segment(1, 0, 50)
			res := ix.Dedup(seg)
			cids := commitAll(ix, seg, res, &next)
			ix.EndVersion()

			res2 := ix.Dedup(seg)
			for i, r := range res2 {
				if !r.Duplicate {
					t.Fatalf("chunk %d not duplicate", i)
				}
				if r.CID != cids[i] {
					t.Fatalf("chunk %d CID = %d, want %d", i, r.CID, cids[i])
				}
			}
		})
	}
}

// TestIntraSegmentDuplicates: the same fingerprint twice in one segment
// must classify the second occurrence as a duplicate (pending CID 0 or
// resolved).
func TestIntraSegmentDuplicates(t *testing.T) {
	for name, ix := range makeIndexes(t) {
		t.Run(name, func(t *testing.T) {
			base := segment(1, 0, 10)
			seg := append(append([]index.ChunkRef(nil), base...), base...)
			res := ix.Dedup(seg)
			for i := 0; i < 10; i++ {
				if res[i].Duplicate {
					t.Fatalf("first occurrence %d misclassified", i)
				}
			}
			for i := 10; i < 20; i++ {
				if !res[i].Duplicate {
					t.Fatalf("second occurrence %d not duplicate", i)
				}
			}
		})
	}
}

func TestStatsBytesPartition(t *testing.T) {
	for name, ix := range makeIndexes(t) {
		t.Run(name, func(t *testing.T) {
			var next container.ID
			seg := segment(1, 0, 30)
			var logical uint64
			for _, c := range seg {
				logical += uint64(c.Size)
			}
			res := ix.Dedup(seg)
			commitAll(ix, seg, res, &next)
			ix.EndVersion()
			ix.Dedup(seg)
			st := ix.Stats()
			if st.UniqueBytes+st.DuplicateBytes != 2*logical {
				t.Fatalf("bytes don't partition: %d + %d != %d",
					st.UniqueBytes, st.DuplicateBytes, 2*logical)
			}
			if st.Lookups != 60 {
				t.Fatalf("Lookups = %d, want 60", st.Lookups)
			}
		})
	}
}

func TestMemoryGrowsWithData(t *testing.T) {
	for name, ix := range makeIndexes(t) {
		t.Run(name, func(t *testing.T) {
			var next container.ID
			before := ix.MemoryBytes()
			for v := 0; v < 4; v++ {
				seg := segment(1, v*1000, 1000)
				res := ix.Dedup(seg)
				commitAll(ix, seg, res, &next)
				ix.EndVersion()
			}
			after := ix.MemoryBytes()
			if after <= before {
				t.Fatalf("MemoryBytes did not grow: %d -> %d", before, after)
			}
		})
	}
}

// TestSamplingIndexesUseLessMemory checks the Figure 10 ordering at the
// index level: sparse and SiLo keep far less persistent memory than DDFS
// for the same data.
func TestSamplingIndexesUseLessMemory(t *testing.T) {
	indexes := makeIndexes(t)
	var next container.ID
	for _, ix := range indexes {
		for v := 0; v < 4; v++ {
			seg := segment(1, v*2000, 2000)
			res := ix.Dedup(seg)
			commitAll(ix, seg, res, &next)
			ix.EndVersion()
		}
	}
	dd := indexes["ddfs"].MemoryBytes()
	sp := indexes["sparse"].MemoryBytes()
	si := indexes["silo"].MemoryBytes()
	if sp >= dd {
		t.Errorf("sparse memory %d should be below ddfs %d", sp, dd)
	}
	if si >= dd {
		t.Errorf("silo memory %d should be below ddfs %d", si, dd)
	}
}

func TestNames(t *testing.T) {
	for want, ix := range makeIndexes(t) {
		if got := ix.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestEmptySegment(t *testing.T) {
	for name, ix := range makeIndexes(t) {
		t.Run(name, func(t *testing.T) {
			res := ix.Dedup(nil)
			if len(res) != 0 {
				t.Fatalf("Dedup(nil) returned %d results", len(res))
			}
			ix.Commit(nil, nil)
			ix.EndVersion()
		})
	}
}

func TestStatsSub(t *testing.T) {
	before := index.Stats{Lookups: 1, DiskLookups: 2, CacheHits: 3, Duplicates: 4, Uniques: 5, DuplicateBytes: 6, UniqueBytes: 7}
	after := index.Stats{Lookups: 2, DiskLookups: 4, CacheHits: 6, Duplicates: 8, Uniques: 10, DuplicateBytes: 12, UniqueBytes: 14}
	if got := after.Sub(before); got != before {
		t.Fatalf("Sub = %+v, want %+v", got, before)
	}
}
