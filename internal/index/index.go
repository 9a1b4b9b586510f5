// Package index defines the fingerprint-index interface shared by the
// deduplication schemes the paper evaluates (§5.2): DDFS-style exact
// deduplication, Sparse Indexing, SiLo, and HiDeStore's double-hash
// fingerprint cache (which lives in internal/core and implements the same
// interface).
//
// Indexes are consulted at *segment* granularity: the dedup engine cuts the
// chunk stream into segments of a few thousand chunks and asks the index to
// classify every chunk of a segment as duplicate or unique. Segment
// granularity is what the sampling-based baselines need — Sparse Indexing
// picks champion manifests per segment, SiLo computes per-segment
// representative fingerprints — while per-chunk schemes (DDFS, HiDeStore)
// simply iterate the segment.
//
// The index answers *where* a duplicate lives so the engine can write
// recipes; it is told where unique chunks were placed via Commit.
package index

import (
	"hidestore/internal/container"
	"hidestore/internal/fp"
)

// ChunkRef is the metadata an index sees for one chunk: fingerprint and
// size. Chunk payloads never flow through indexes.
type ChunkRef struct {
	FP   fp.FP
	Size uint32
}

// Result classifies one chunk.
type Result struct {
	// Duplicate reports whether the chunk's content is already stored.
	Duplicate bool
	// CID is the container holding the duplicate, when known. CID 0 with
	// Duplicate == true means the duplicate is pending placement earlier
	// in the same backup session (an intra-version duplicate); the engine
	// resolves it from its session map.
	CID container.ID
}

// Stats counts index activity. DiskLookups is the paper's Figure 9 metric:
// the number of lookup requests that must go to on-disk structures (full
// index entries, champion manifests, SiLo blocks) — in-memory cache hits
// and Bloom-filter rejections are free.
type Stats struct {
	// Lookups is the total number of chunk classifications requested.
	Lookups uint64
	// DiskLookups counts reads of on-disk index structures.
	DiskLookups uint64
	// CacheHits counts duplicates answered from in-memory state.
	CacheHits uint64
	// Duplicates and Uniques partition classified chunks.
	Duplicates uint64
	Uniques    uint64
	// DuplicateBytes and UniqueBytes partition classified bytes.
	DuplicateBytes uint64
	UniqueBytes    uint64
}

// Sub returns the counters accrued since before, an earlier snapshot of
// the same index: one version's share of a cumulative total.
func (s Stats) Sub(before Stats) Stats {
	return Stats{
		Lookups:        s.Lookups - before.Lookups,
		DiskLookups:    s.DiskLookups - before.DiskLookups,
		CacheHits:      s.CacheHits - before.CacheHits,
		Duplicates:     s.Duplicates - before.Duplicates,
		Uniques:        s.Uniques - before.Uniques,
		DuplicateBytes: s.DuplicateBytes - before.DuplicateBytes,
		UniqueBytes:    s.UniqueBytes - before.UniqueBytes,
	}
}

// Index is a fingerprint index. Implementations are not required to be
// safe for concurrent use; the dedup engine calls them from one goroutine,
// the ingest pipeline's in-order sink.
type Index interface {
	// Name identifies the scheme ("ddfs", "sparse", "silo", "hidestore").
	Name() string
	// Dedup classifies every chunk of one segment, in order. The returned
	// slice has exactly len(seg) results.
	Dedup(seg []ChunkRef) []Result
	// Commit records the final placement of each chunk of a segment the
	// engine just stored: cids[i] is the container now holding seg[i]
	// (for duplicates, the pre-existing container). Commit is called once
	// per Dedup, with the same segment.
	Commit(seg []ChunkRef, cids []container.ID)
	// EndVersion marks a backup-version boundary (flush partial segments,
	// rotate caches).
	EndVersion()
	// Stats returns cumulative counters.
	Stats() Stats
	// MemoryBytes estimates the persistent index-table footprint — the
	// Figure 10 metric. Transient per-version state (e.g. HiDeStore's T1
	// and T2, which are rebuilt from the previous recipe) is excluded.
	MemoryBytes() int64
}
