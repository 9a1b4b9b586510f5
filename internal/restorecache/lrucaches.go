package restorecache

import (
	"bytes"
	"context"
	"io"

	"hidestore/internal/container"
	"hidestore/internal/fp"
	"hidestore/internal/lru"
	"hidestore/internal/recipe"
)

// ContainerLRU restores through an LRU cache of whole containers
// (container-based caching, §2.3). Good when fragmentation is low; as
// versions accumulate and each container contributes only a few chunks to
// the stream, cached containers stop earning their keep — exactly the
// degradation the paper describes.
type ContainerLRU struct {
	// CacheContainers is the cache capacity in containers (default 32,
	// i.e. 128 MB at 4 MB containers).
	CacheContainers int
}

var _ Cache = (*ContainerLRU)(nil)

// NewContainerLRU returns a container-LRU cache; capacity 0 means the
// 32-container default.
func NewContainerLRU(capacity int) *ContainerLRU {
	if capacity <= 0 {
		capacity = 32
	}
	return &ContainerLRU{CacheContainers: capacity}
}

// Name implements Cache.
func (c *ContainerLRU) Name() string { return "container-lru" }

// Restore implements Cache.
func (c *ContainerLRU) Restore(ctx context.Context, entries []recipe.Entry, fetch Fetcher, w io.Writer) (Stats, error) {
	return run(ctx, entries, fetch, w, c.restore)
}

func (c *ContainerLRU) restore(ctx context.Context, entries []recipe.Entry, counted Fetcher, stats *Stats, asm assembler) error {
	cache, err := lru.New[container.ID, *container.Container](int64(c.CacheContainers))
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return err
		}
		id := container.ID(e.CID)
		ctn, ok := cache.Get(id)
		if ok {
			stats.CacheHits++
		} else {
			ctn, err = counted.Get(ctx, id)
			if err != nil {
				return err
			}
			cache.Add(id, ctn, 1)
		}
		if err := asm.chunk(ctn, e); err != nil {
			return err
		}
		stats.Chunks++
	}
	return nil
}

// ChunkLRU restores through a byte-budgeted LRU cache of individual
// chunks (chunk-based caching, §2.3). Fetching a container inserts all its
// chunks; unlike ContainerLRU, dead weight (chunks the stream never needs
// again) is evicted chunk-by-chunk, so the budget is used more precisely.
type ChunkLRU struct {
	// CacheBytes is the cache capacity in payload bytes (default 128 MB).
	CacheBytes int64
}

var _ Cache = (*ChunkLRU)(nil)

// NewChunkLRU returns a chunk-LRU cache; capacity 0 means the 128 MB
// default.
func NewChunkLRU(capacityBytes int64) *ChunkLRU {
	if capacityBytes <= 0 {
		capacityBytes = 128 << 20
	}
	return &ChunkLRU{CacheBytes: capacityBytes}
}

// Name implements Cache.
func (c *ChunkLRU) Name() string { return "chunk-lru" }

// Restore implements Cache.
func (c *ChunkLRU) Restore(ctx context.Context, entries []recipe.Entry, fetch Fetcher, w io.Writer) (Stats, error) {
	return run(ctx, entries, fetch, w, c.restore)
}

func (c *ChunkLRU) restore(ctx context.Context, entries []recipe.Entry, counted Fetcher, stats *Stats, asm assembler) error {
	cache, err := lru.New[fp.FP, []byte](c.CacheBytes)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return err
		}
		if data, ok := cache.Get(e.FP); ok {
			stats.CacheHits++
			if err := asm.cached(data, e); err != nil {
				return err
			}
		} else {
			ctn, err := counted.Get(ctx, container.ID(e.CID))
			if err != nil {
				return err
			}
			// Insert every chunk of the fetched container: stream
			// locality makes neighbours likely to be needed soon. A tiny
			// cache may evict them immediately, which is only a
			// performance concern — the needed chunk is already in hand.
			// The cache copies: a view would pin the whole image while one
			// chunk stays cached, and the budget would not bound memory.
			payload := ctn.Payload()
			for _, ce := range ctn.Entries() {
				cache.Add(ce.FP, bytes.Clone(payload[ce.Offset:ce.Offset+ce.Size]), int64(ce.Size))
			}
			if err := asm.chunk(ctn, e); err != nil {
				return err
			}
		}
		stats.Chunks++
	}
	return nil
}

// OPT is Belady's optimal container cache: with the full recipe known in
// advance, it always evicts the container whose next use is farthest in
// the future. No online scheme can beat it at equal capacity, which makes
// it the yardstick for the ablation benchmarks.
type OPT struct {
	// CacheContainers is the capacity in containers (default 32).
	CacheContainers int
}

var _ Cache = (*OPT)(nil)

// NewOPT returns a clairvoyant container cache; capacity 0 means 32.
func NewOPT(capacity int) *OPT {
	if capacity <= 0 {
		capacity = 32
	}
	return &OPT{CacheContainers: capacity}
}

// Name implements Cache.
func (o *OPT) Name() string { return "opt" }

// Restore implements Cache.
func (o *OPT) Restore(ctx context.Context, entries []recipe.Entry, fetch Fetcher, w io.Writer) (Stats, error) {
	return run(ctx, entries, fetch, w, o.restore)
}

func (o *OPT) restore(ctx context.Context, entries []recipe.Entry, counted Fetcher, stats *Stats, asm assembler) error {
	// Precompute, for each position, the next position at which the same
	// container is used again.
	nextUse := make([]int, len(entries))
	lastSeen := make(map[container.ID]int)
	for i := len(entries) - 1; i >= 0; i-- {
		id := container.ID(entries[i].CID)
		if next, ok := lastSeen[id]; ok {
			nextUse[i] = next
		} else {
			nextUse[i] = len(entries) // never again
		}
		lastSeen[id] = i
	}
	cached := make(map[container.ID]*container.Container, o.CacheContainers)
	// future[id] is the next position at which id is needed, maintained
	// as positions advance.
	future := make(map[container.ID]int)
	for i, e := range entries {
		if err := ctx.Err(); err != nil {
			return err
		}
		id := container.ID(e.CID)
		future[id] = nextUse[i]
		ctn, ok := cached[id]
		if ok {
			stats.CacheHits++
		} else {
			var err error
			ctn, err = counted.Get(ctx, id)
			if err != nil {
				return err
			}
			if len(cached) >= o.CacheContainers {
				// Evict the container used farthest in the future.
				var victim container.ID
				farthest := -1
				for cid := range cached {
					nu, ok := future[cid]
					if !ok {
						nu = len(entries)
					}
					if nu > farthest {
						farthest = nu
						victim = cid
					}
				}
				delete(cached, victim)
			}
			cached[id] = ctn
		}
		if err := asm.chunk(ctn, e); err != nil {
			return err
		}
		stats.Chunks++
	}
	return nil
}
