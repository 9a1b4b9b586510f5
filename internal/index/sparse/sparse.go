// Package sparse implements Sparse Indexing (Lillibridge et al., FAST'09),
// the near-exact deduplication baseline that trades a little dedup ratio
// for a drastically smaller in-memory index (§5.2, §6 of the paper).
//
// The chunk stream is processed in segments. A small fraction of each
// segment's fingerprints — the *hooks*, chosen by a deterministic sampling
// predicate — are kept in an in-memory sparse index mapping hook →
// manifests (previously stored segments) that contain it. To deduplicate a
// new segment, the scheme looks up the segment's hooks, ranks the matching
// manifests, loads the top few *champions* from disk (each load is one
// counted disk lookup), and deduplicates the segment only against the
// champions' chunks. Chunks that exist in the store but not in any chosen
// champion are missed and re-stored — which is exactly why Figure 8 shows
// sparse indexing below DDFS and HiDeStore in dedup ratio.
package sparse

import (
	"fmt"
	"sort"

	"hidestore/internal/container"
	"hidestore/internal/fp"
	"hidestore/internal/index"
)

// Options configures Sparse Indexing.
type Options struct {
	// SampleBits determines the sampling rate: a fingerprint is a hook
	// when its top 64 bits have SampleBits trailing zero bits, i.e. the
	// expected rate is 1/2^SampleBits. Default 6 (1/64).
	SampleBits int
	// MaxChampions bounds how many manifests are loaded per segment.
	// Default 10, the original paper's sweet spot.
	MaxChampions int
	// MaxHooksPerManifest caps how many manifest IDs one hook keeps (the
	// original design keeps the most recent). Default 4.
	MaxHooksPerManifest int
}

func (o *Options) setDefaults() {
	if o.SampleBits <= 0 {
		o.SampleBits = 6
	}
	if o.MaxChampions <= 0 {
		o.MaxChampions = 10
	}
	if o.MaxHooksPerManifest <= 0 {
		o.MaxHooksPerManifest = 4
	}
}

// manifest is an on-disk segment record: the chunks of one stored segment
// and where they were placed.
type manifest struct {
	id     uint64
	chunks []index.ChunkRef
	cids   []container.ID
}

// Index is the sparse index.
type Index struct {
	opts Options
	mask uint64
	// sparse is the in-memory hook table: hook fingerprint → manifest IDs
	// (most recent first).
	sparse map[fp.FP][]uint64
	// manifests models the on-disk manifest store.
	manifests map[uint64]*manifest
	nextID    uint64
	stats     index.Stats
}

var _ index.Index = (*Index)(nil)

// New creates a sparse index.
func New(opts Options) (*Index, error) {
	opts.setDefaults()
	if opts.SampleBits > 32 {
		return nil, fmt.Errorf("sparse: SampleBits %d too large", opts.SampleBits)
	}
	return &Index{
		opts:      opts,
		mask:      uint64(1)<<opts.SampleBits - 1,
		sparse:    make(map[fp.FP][]uint64),
		manifests: make(map[uint64]*manifest),
	}, nil
}

// Name implements index.Index.
func (ix *Index) Name() string { return "sparse" }

func (ix *Index) isHook(f fp.FP) bool {
	return f.Prefix64()&ix.mask == 0
}

// Dedup implements index.Index.
func (ix *Index) Dedup(seg []index.ChunkRef) []index.Result {
	results := make([]index.Result, len(seg))
	champions := ix.chooseChampions(seg)
	// Build the dedup set from champion manifests; each champion load is
	// one disk lookup (manifests live on disk).
	known := make(map[fp.FP]container.ID)
	for _, mID := range champions {
		ix.stats.DiskLookups++
		m, ok := ix.manifests[mID]
		if !ok {
			continue
		}
		for i, c := range m.chunks {
			if _, seen := known[c.FP]; !seen {
				known[c.FP] = m.cids[i]
			}
		}
	}
	pending := make(map[fp.FP]struct{}, len(seg))
	for i, c := range seg {
		ix.stats.Lookups++
		if _, ok := pending[c.FP]; ok {
			results[i] = index.Result{Duplicate: true}
			ix.noteDuplicate(c)
			continue
		}
		if cid, ok := known[c.FP]; ok {
			results[i] = index.Result{Duplicate: true, CID: cid}
			ix.stats.CacheHits++
			ix.noteDuplicate(c)
			continue
		}
		results[i] = index.Result{}
		pending[c.FP] = struct{}{}
		ix.noteUnique(c)
	}
	return results
}

func (ix *Index) noteDuplicate(c index.ChunkRef) {
	ix.stats.Duplicates++
	ix.stats.DuplicateBytes += uint64(c.Size)
}

func (ix *Index) noteUnique(c index.ChunkRef) {
	ix.stats.Uniques++
	ix.stats.UniqueBytes += uint64(c.Size)
}

// chooseChampions ranks manifests by how many of the segment's hooks they
// hold and returns the top MaxChampions manifest IDs.
func (ix *Index) chooseChampions(seg []index.ChunkRef) []uint64 {
	votes := make(map[uint64]int)
	for _, c := range seg {
		if !ix.isHook(c.FP) {
			continue
		}
		for _, mID := range ix.sparse[c.FP] {
			votes[mID]++
		}
	}
	if len(votes) == 0 {
		return nil
	}
	type scored struct {
		id    uint64
		votes int
	}
	ranked := make([]scored, 0, len(votes))
	for id, v := range votes {
		ranked = append(ranked, scored{id, v})
	}
	// Highest vote count first; newer manifest breaks ties (fresher
	// locality).
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].votes != ranked[j].votes {
			return ranked[i].votes > ranked[j].votes
		}
		return ranked[i].id > ranked[j].id
	})
	n := ix.opts.MaxChampions
	if n > len(ranked) {
		n = len(ranked)
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = ranked[i].id
	}
	return out
}

// Commit implements index.Index: the segment becomes a manifest and its
// hooks are registered in the sparse index.
func (ix *Index) Commit(seg []index.ChunkRef, cids []container.ID) {
	if len(seg) == 0 {
		return
	}
	ix.nextID++
	m := &manifest{
		id:     ix.nextID,
		chunks: append([]index.ChunkRef(nil), seg...),
		cids:   append([]container.ID(nil), cids...),
	}
	ix.manifests[m.id] = m
	for _, c := range seg {
		if !ix.isHook(c.FP) {
			continue
		}
		list := ix.sparse[c.FP]
		// Most recent first, capped.
		list = append([]uint64{m.id}, list...)
		if len(list) > ix.opts.MaxHooksPerManifest {
			list = list[:ix.opts.MaxHooksPerManifest]
		}
		ix.sparse[c.FP] = list
	}
}

// EndVersion implements index.Index. Sparse indexing has no per-version
// state; segments never span versions because the engine flushes at
// version boundaries.
func (ix *Index) EndVersion() {}

// Stats implements index.Index.
func (ix *Index) Stats() index.Stats { return ix.stats }

// MemoryBytes implements index.Index: the in-memory hook table — one
// 20-byte hook plus 8 bytes per manifest reference. Manifests live on disk
// and are excluded, which is the whole point of the scheme.
func (ix *Index) MemoryBytes() int64 {
	var total int64
	for _, list := range ix.sparse {
		total += fp.Size + int64(len(list))*8
	}
	return total
}

// Manifests returns the number of stored manifests (test hook).
func (ix *Index) Manifests() int { return len(ix.manifests) }
