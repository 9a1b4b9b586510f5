// Package core implements HiDeStore, the paper's contribution: a
// deduplication backup engine that preserves physical locality for new
// backup versions by construction.
//
// The pieces map onto the paper's design sections:
//
//   - the double-hash fingerprint cache (§4.1, Figure 5): the previous
//     version's chunks (T1) and the current version's chunks (T2); chunks
//     are deduplicated against the cache alone, never against an on-disk
//     index;
//   - the chunk filter (§4.2, Figure 6): unique chunks go to mutable
//     *active* containers; after each version, chunks left in T1 (cold —
//     absent from the version just processed) migrate to immutable
//     *archival* containers, and sparse active containers are merged;
//   - recipe updating (§4.3, Figure 7, Algorithm 1): only the recipe
//     leaving the cache window is rewritten per version; entries point
//     into archival containers or chain forward to newer recipes;
//   - restore (§4.4) resolves the three CID kinds and streams through a
//     restore cache;
//   - deletion (§4.5): expired versions drop whole archival containers —
//     no reference counting, no garbage collection.
package core

import (
	"sync"
	"sync/atomic"

	"hidestore/internal/container"
	"hidestore/internal/fp"
	"hidestore/internal/index"
)

// EntryBytes is the in-memory footprint the paper assigns to one
// fingerprint-cache entry: 20-byte fingerprint + 4-byte container ID +
// 4-byte size (§4.1).
const EntryBytes = fp.Size + 4 + 4

// cacheShards is the fingerprint cache's shard count. Sixteen
// shards keep the collision probability for a handful of hash workers
// low while the per-shard maps stay large enough to amortize map
// overhead.
const cacheShards = 16

// cacheShard is one lock domain of the fingerprint cache: a slice of
// the fingerprint space selected by the fingerprint's leading byte,
// with its own maps and its own statistics.
//
// The stats counters are atomics, not mutex-guarded fields, for two
// reasons: a concurrent Stats() scrape (metrics exposition, progress
// reporting) never blocks the backup pipeline, and per-shard counts
// sum exactly at snapshot time, so concurrent chunk classification on
// different shards never loses an increment.
type cacheShard struct {
	mu       sync.RWMutex
	active   map[fp.FP]container.ID
	lastSeen map[fp.FP]int

	lookups        atomic.Uint64
	cacheHits      atomic.Uint64
	duplicates     atomic.Uint64
	uniques        atomic.Uint64
	duplicateBytes atomic.Uint64
	uniqueBytes    atomic.Uint64
}

// IndexView is HiDeStore's fingerprint cache exposed through the common
// index.Index interface, so the lookup-overhead and index-memory
// experiments (Figures 9 and 10) can compare it directly against DDFS,
// Sparse Indexing and SiLo on identical chunk streams.
//
// Internally the two (or, with Window > 1, N+1) hash tables of Figure 5
// are represented as one map plus a last-seen version per chunk: a chunk
// with lastSeen == current version is in T2; lastSeen == current-1 is in
// T1; anything older has been evicted (migrated to archival containers by
// the full engine). The set of reachable chunks is identical to the
// paper's construction; only the bookkeeping differs.
//
// The map is sharded by fingerprint prefix (power-of-two shard count,
// one RWMutex per shard) so concurrent lookups from the backup
// pipeline's hash workers — and, in the daemon, many tenants — do not
// serialize on one lock. The speculative read path (probe) takes only
// a shard read-lock; mutating classifications take the shard's write
// lock. Version transitions (EndVersion) are not concurrency-safe with
// classification; the engine runs them strictly between pipelines.
type IndexView struct {
	// window is how many previous versions the cache covers (1 for most
	// workloads; 2 for macos-like workloads, §4.1).
	window  int
	version int
	mask    uint8
	shards  []cacheShard
}

var _ index.Index = (*IndexView)(nil)

// NewIndexView creates a HiDeStore fingerprint cache with the given
// window (0 means the default of 1) and cacheShards shards.
func NewIndexView(window int) *IndexView {
	return newIndexViewSharded(window, cacheShards)
}

// newIndexViewSharded is NewIndexView with an explicit shard count: a
// power of two no larger than 256 (the shard selector is the
// fingerprint's leading byte). Tests compare shard counts through it.
func newIndexViewSharded(window, shards int) *IndexView {
	if window <= 0 {
		window = 1
	}
	v := &IndexView{
		window: window,
		mask:   uint8(shards - 1),
		shards: make([]cacheShard, shards),
	}
	for i := range v.shards {
		v.shards[i].active = make(map[fp.FP]container.ID)
		v.shards[i].lastSeen = make(map[fp.FP]int)
	}
	return v
}

// shard selects the lock domain for a fingerprint.
func (v *IndexView) shard(f fp.FP) *cacheShard {
	return &v.shards[f[0]&v.mask]
}

// Name implements index.Index.
func (v *IndexView) Name() string { return "hidestore" }

// Dedup implements index.Index: chunks are matched against the fingerprint
// cache only — there is no full index and therefore never a disk lookup,
// which is the whole point of Figure 9.
func (v *IndexView) Dedup(seg []index.ChunkRef) []index.Result {
	results := make([]index.Result, len(seg))
	for i, c := range seg {
		cid, dup := v.lookupOne(c.FP, c.Size)
		if dup {
			results[i] = index.Result{Duplicate: true, CID: cid}
		}
	}
	return results
}

// Commit implements index.Index: newly stored chunks enter T2.
func (v *IndexView) Commit(seg []index.ChunkRef, cids []container.ID) {
	for i, c := range seg {
		if i >= len(cids) || cids[i] == 0 {
			continue
		}
		v.commitOne(c.FP, cids[i])
	}
}

// EndVersion implements index.Index: T1's leftovers (chunks not seen
// within the window) are evicted — in the full engine this is the moment
// they migrate to archival containers. Not safe to run concurrently
// with classification; the engine calls it between pipelines.
func (v *IndexView) EndVersion() { v.endVersion(false) }

// evictedChunk is one chunk leaving the cache at a version boundary,
// with the active container that held it.
type evictedChunk struct {
	f   fp.FP
	cid container.ID
}

// endVersion is EndVersion that, when collect is set, also returns the
// evicted set — the engine's cold chunks, found here under one lock per
// shard instead of by re-probing every hot fingerprint afterwards.
func (v *IndexView) endVersion(collect bool) []evictedChunk {
	var out []evictedChunk
	v.version++
	for i := range v.shards {
		s := &v.shards[i]
		s.mu.Lock()
		for f, seen := range s.lastSeen {
			if seen <= v.version-v.window {
				if collect {
					out = append(out, evictedChunk{f: f, cid: s.active[f]})
				}
				delete(s.active, f)
				delete(s.lastSeen, f)
			}
		}
		s.mu.Unlock()
	}
	return out
}

// Evicted returns the fingerprints that would leave the cache if the
// version ended now (the cold set). Used by tests.
func (v *IndexView) Evicted() []fp.FP {
	var out []fp.FP
	for i := range v.shards {
		s := &v.shards[i]
		s.mu.RLock()
		for f, seen := range s.lastSeen {
			if seen <= v.version+1-v.window {
				out = append(out, f)
			}
		}
		s.mu.RUnlock()
	}
	return out
}

// probe is the hash workers' speculative read: a shard read-lock map
// hit, no statistics, no recency bump. A true result is trustworthy
// for the rest of the version — entries are never removed while a
// backup pipeline runs — so the in-order sink can confirm it with
// touch. A false result is only a hint: an identical chunk earlier in
// the same version may commit between the probe and the sink, so
// misses are re-probed in order by lookupOne.
func (v *IndexView) probe(f fp.FP) (container.ID, bool) {
	s := v.shard(f)
	s.mu.RLock()
	cid, ok := s.active[f]
	s.mu.RUnlock()
	return cid, ok
}

// touch confirms a probe hit on the sink's in-order path: it records
// the same statistics and recency bump lookupOne's hit path would,
// without re-reading the map.
func (v *IndexView) touch(f fp.FP, size uint32) {
	s := v.shard(f)
	s.mu.Lock()
	s.lastSeen[f] = v.version + 1
	s.mu.Unlock()
	s.lookups.Add(1)
	s.cacheHits.Add(1)
	s.duplicates.Add(1)
	s.duplicateBytes.Add(uint64(size))
}

// lookupOne classifies a single chunk without the slice plumbing of
// Dedup — the engine's per-chunk hot path.
func (v *IndexView) lookupOne(f fp.FP, size uint32) (container.ID, bool) {
	s := v.shard(f)
	s.lookups.Add(1)
	s.mu.Lock()
	cid, ok := s.active[f]
	if ok {
		s.lastSeen[f] = v.version + 1 // T1 hit moves the chunk into T2
	}
	s.mu.Unlock()
	if ok {
		s.cacheHits.Add(1)
		s.duplicates.Add(1)
		s.duplicateBytes.Add(uint64(size))
		return cid, true
	}
	s.uniques.Add(1)
	s.uniqueBytes.Add(uint64(size))
	return 0, false
}

// commitOne records a single newly stored chunk.
func (v *IndexView) commitOne(f fp.FP, cid container.ID) {
	s := v.shard(f)
	s.mu.Lock()
	if _, ok := s.active[f]; !ok {
		s.active[f] = cid
	}
	s.lastSeen[f] = v.version + 1
	s.mu.Unlock()
}

// setCID rewrites a hot chunk's location (sparse-container merge).
func (v *IndexView) setCID(f fp.FP, cid container.ID) {
	s := v.shard(f)
	s.mu.Lock()
	s.active[f] = cid
	s.mu.Unlock()
}

// lastSeenOf reports the version a hot chunk was last seen in.
func (v *IndexView) lastSeenOf(f fp.FP) (int, bool) {
	s := v.shard(f)
	s.mu.RLock()
	seen, ok := s.lastSeen[f]
	s.mu.RUnlock()
	return seen, ok
}

// insertEntry loads one cache entry verbatim (state-file restore).
func (v *IndexView) insertEntry(f fp.FP, cid container.ID, seen int) {
	s := v.shard(f)
	s.mu.Lock()
	s.active[f] = cid
	s.lastSeen[f] = seen
	s.mu.Unlock()
}

// setVersion aligns the cache's version counter after a state-file
// restore.
func (v *IndexView) setVersion(version int) { v.version = version }

// Stats implements index.Index: the per-shard counters summed at
// snapshot time. Safe to call concurrently with classification.
func (v *IndexView) Stats() index.Stats {
	var st index.Stats
	for i := range v.shards {
		s := &v.shards[i]
		st.Lookups += s.lookups.Load()
		st.CacheHits += s.cacheHits.Load()
		st.Duplicates += s.duplicates.Load()
		st.Uniques += s.uniques.Load()
		st.DuplicateBytes += s.duplicateBytes.Load()
		st.UniqueBytes += s.uniqueBytes.Load()
	}
	return st
}

// MemoryBytes implements index.Index. HiDeStore keeps no persistent index
// table: the fingerprint cache is rebuilt from the previous version's
// recipe, so its persistent overhead is zero (§5.2.3, Figure 10). The
// transient cache size is reported by TransientBytes.
func (v *IndexView) MemoryBytes() int64 { return 0 }

// TransientBytes is the current fingerprint-cache footprint — bounded by
// the size of one window of backup versions (§4.1's ~100 MB macos
// example), not by the dataset.
func (v *IndexView) TransientBytes() int64 {
	var n int64
	for i := range v.shards {
		s := &v.shards[i]
		s.mu.RLock()
		n += int64(len(s.active))
		s.mu.RUnlock()
	}
	return n * EntryBytes
}
