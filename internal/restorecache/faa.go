package restorecache

import (
	"context"
	"io"

	"hidestore/internal/container"
	"hidestore/internal/recipe"
)

// FAA restores through a Forward Assembly Area (Lillibridge et al.,
// FAST'13). The recipe gives perfect knowledge of the next M bytes of the
// stream, so FAA reserves an M-byte assembly buffer, groups the buffer's
// chunk slots by container, and reads each distinct container exactly once
// per area — filling every slot that container serves before moving on.
// Unlike an LRU cache, FAA never re-reads a container within an area and
// never holds chunk copies beyond the area being assembled.
type FAA struct {
	// AreaBytes is the assembly area size M (default 64 MB).
	AreaBytes int
}

var _ Cache = (*FAA)(nil)

// NewFAA returns a forward-assembly restorer; size 0 means 64 MB.
func NewFAA(areaBytes int) *FAA {
	if areaBytes <= 0 {
		areaBytes = 64 << 20
	}
	return &FAA{AreaBytes: areaBytes}
}

// Name implements Cache.
func (f *FAA) Name() string { return "faa" }

// carveArea advances pos past as many entries as fit in areaBytes
// (always at least one, so oversized chunks still restore) and returns
// the carved slice.
func carveArea(entries []recipe.Entry, pos *int, areaBytes int) []recipe.Entry {
	start := *pos
	used := 0
	for *pos < len(entries) {
		size := int(entries[*pos].Size)
		if *pos > start && used+size > areaBytes {
			break
		}
		used += size
		*pos++
	}
	return entries[start:*pos]
}

// Restore implements Cache.
func (f *FAA) Restore(ctx context.Context, entries []recipe.Entry, fetch Fetcher, w io.Writer) (Stats, error) {
	return run(ctx, entries, fetch, w, f.restore)
}

// restore emits the stream through asm: containers are still fetched
// once per area in first-appearance order (the read sequence and its
// accounting are identical to the buffered implementation), but chunk
// copies go to the assembler in stream order instead of into a private
// area buffer, so the copy stage can run serially or in parallel.
func (f *FAA) restore(ctx context.Context, entries []recipe.Entry, counted Fetcher, stats *Stats, asm assembler) error {
	pos := 0
	for pos < len(entries) {
		slots := carveArea(entries, &pos, f.AreaBytes)
		// Per-area bookkeeping: how many slots each container serves
		// (for the hit accounting) and where its last slot sits (so the
		// fetched container is released as soon as its chunks are out).
		group := make(map[container.ID]int, 8)
		lastAt := make(map[container.ID]int, 8)
		for i, e := range slots {
			id := container.ID(e.CID)
			group[id]++
			lastAt[id] = i
		}
		ctns := make(map[container.ID]*container.Container, len(group))
		for i, e := range slots {
			if err := ctx.Err(); err != nil {
				return err
			}
			id := container.ID(e.CID)
			ctn, ok := ctns[id]
			if !ok {
				var err error
				ctn, err = counted.Get(ctx, id)
				if err != nil {
					return err
				}
				ctns[id] = ctn
				// All of this container's slots beyond the first are
				// served by the same read.
				stats.CacheHits += uint64(group[id] - 1)
				stats.Chunks += uint64(group[id])
			}
			if err := asm.chunk(ctn, e); err != nil {
				return err
			}
			if lastAt[id] == i {
				delete(ctns, id)
			}
		}
	}
	return nil
}
