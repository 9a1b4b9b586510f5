// Package restorecache implements the restore-phase caching schemes the
// paper evaluates (§2.3, §5.3).
//
// Restoring a backup walks its recipe and reads each chunk from its
// container; containers are the unit of disk I/O, so the restore cost is
// the number of *container reads*. All schemes here exploit the logical
// locality of backup streams — chunks are read in roughly the order they
// were written — to serve many chunks per container read:
//
//   - ContainerLRU caches whole containers (Zhu et al. style).
//   - ChunkLRU caches individual chunks from fetched containers.
//   - FAA fills a forward assembly area from each container exactly once
//     per area (Lillibridge et al., FAST'13).
//   - ALACC combines an assembly area with an adaptive look-ahead chunk
//     cache (Cao et al., FAST'18), the strongest published baseline.
//   - OPT is Belady's clairvoyant container cache, an upper bound used by
//     the ablation benchmarks.
//
// The paper's metric is the speed factor: MB restored per container read.
// Every scheme returns it in its Stats.
package restorecache

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"hidestore/internal/container"
	"hidestore/internal/recipe"
)

// ErrUnresolved reports a recipe entry whose CID is not a positive
// container ID; callers must flatten/resolve recipes before restoring.
var ErrUnresolved = errors.New("restorecache: entry has unresolved CID")

// Fetcher reads containers by ID. Every Get is one counted container
// read. Get must honor ctx: a cancelled context returns ctx.Err()
// promptly (at worst after the in-flight container read). Wrap a
// container.Store with StoreFetcher to satisfy it.
type Fetcher interface {
	Get(ctx context.Context, id container.ID) (*container.Container, error)
}

// storeFetcher adapts a container.Store to the Fetcher interface,
// checking ctx before every read.
type storeFetcher struct {
	store container.Store
}

// StoreFetcher returns a Fetcher backed by s.
func StoreFetcher(s container.Store) Fetcher {
	return storeFetcher{store: s}
}

// Get implements Fetcher.
func (f storeFetcher) Get(ctx context.Context, id container.ID) (*container.Container, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return f.store.Get(id)
}

// Stats describes one restore run.
type Stats struct {
	// ContainerReads counts Fetcher.Get calls.
	ContainerReads uint64
	// BytesRestored is the logical stream size written.
	BytesRestored uint64
	// CacheHits counts chunks served without a fetch.
	CacheHits uint64
	// Chunks is the number of chunk references restored.
	Chunks uint64
}

// SpeedFactor returns MB restored per container read (the paper's §5.3
// metric); infinite locality (zero reads) reports the restored MB.
func (s Stats) SpeedFactor() float64 {
	mb := float64(s.BytesRestored) / (1 << 20)
	if s.ContainerReads == 0 {
		return mb
	}
	return mb / float64(s.ContainerReads)
}

// Cache restores a recipe's chunk sequence through a particular caching
// strategy. Implementations are single-use-safe: each Restore call is
// independent.
type Cache interface {
	// Name identifies the scheme ("container-lru", "chunk-lru", "faa",
	// "alacc", "opt").
	Name() string
	// Restore reads every entry's chunk (in order) from fetch and writes
	// the reassembled stream to w. All entries must carry positive CIDs.
	// A cancelled ctx aborts promptly with ctx.Err(), at worst after the
	// in-flight container read.
	Restore(ctx context.Context, entries []recipe.Entry, fetch Fetcher, w io.Writer) (Stats, error)
}

// New returns a default-configured cache by scheme name.
func New(name string) (Cache, error) {
	switch name {
	case "container-lru", "":
		return NewContainerLRU(0), nil
	case "chunk-lru":
		return NewChunkLRU(0), nil
	case "faa":
		return NewFAA(0), nil
	case "alacc":
		return NewALACC(Options{}), nil
	case "opt":
		return NewOPT(0), nil
	default:
		return nil, fmt.Errorf("restorecache: unknown scheme %q", name)
	}
}

// run is every scheme's Restore: reject unresolved entries, count the
// policy's container reads into the Stats, and assemble the stream it
// emits onto w.
func run(ctx context.Context, entries []recipe.Entry, fetch Fetcher, w io.Writer,
	policy func(context.Context, []recipe.Entry, Fetcher, *Stats, assembler) error) (Stats, error) {
	var stats Stats
	if err := validate(entries); err != nil {
		return stats, err
	}
	asm := newAssembler(w, &stats)
	err := asm.finish(policy(ctx, entries, &countingFetcher{inner: fetch, stats: &stats}, &stats, asm))
	return stats, err
}

// validate rejects unresolved entries up front so schemes can assume
// positive CIDs.
func validate(entries []recipe.Entry) error {
	for i, e := range entries {
		if e.CID <= 0 {
			return fmt.Errorf("%w: entry %d CID %d", ErrUnresolved, i, e.CID)
		}
	}
	return nil
}

// countingFetcher wraps a Fetcher, tallying reads into stats. The
// increment is atomic: today every policy issues Gets from a single
// goroutine, but the counter is the §5.3 accounting ground truth and
// must stay exact if a future policy (or the obs plane's race tier,
// which hammers restores while scraping /metrics) overlaps reads.
type countingFetcher struct {
	inner Fetcher
	stats *Stats
}

func (f *countingFetcher) Get(ctx context.Context, id container.ID) (*container.Container, error) {
	c, err := f.inner.Get(ctx, id)
	if err != nil {
		return nil, err
	}
	atomic.AddUint64(&f.stats.ContainerReads, 1)
	return c, nil
}
