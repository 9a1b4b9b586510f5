// Package layout is the locality observatory's analysis core: it walks
// a version's resolved recipe and the referenced containers' indexes
// and reports how fragmented the version's physical layout is — and
// what that fragmentation would cost to restore — without performing a
// restore.
//
// The per-policy speed-factor estimates are not models: Analyze loads
// each referenced container once, then replays the recipe's container
// reference stream through the *actual* restore-cache implementations
// (container-lru, chunk-lru, faa, alacc, opt) against those in-memory
// containers, writing the reassembled stream to io.Discard. Because
// the policies see the same entries and the same container contents a
// real restore would, the simulated Stats.ContainerReads equals the
// measured value exactly — an identity, not an approximation — which
// is what the conformance tests pin.
package layout

import (
	"context"
	"fmt"
	"io"

	"hidestore/internal/container"
	"hidestore/internal/metrics"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
)

// DefaultPolicies is the policy set Analyze simulates when the caller
// passes none: every scheme the restore cache implements.
var DefaultPolicies = []string{"container-lru", "chunk-lru", "faa", "alacc", "opt"}

// PolicyEstimate is the simulated restore cost of one cache policy.
type PolicyEstimate struct {
	Policy         string  `json:"policy"`
	ContainerReads uint64  `json:"container_reads"`
	CacheHits      uint64  `json:"cache_hits"`
	SpeedFactor    float64 `json:"speed_factor"` // MB restored per container read
}

// Report is the layout analysis of one version.
type Report struct {
	Version      int    `json:"version"`
	LogicalBytes uint64 `json:"logical_bytes"`
	Chunks       int    `json:"chunks"`

	// UniqueContainers is how many distinct containers the version
	// references; OptimalContainers is the fewest that could hold its
	// logical bytes (ceil(logical/capacity)). CFL — Chunk Fragmentation
	// Level, after Nam et al. — is optimal over actual: 1.0 is a
	// perfectly packed layout, lower is more fragmented. Internal
	// duplication can push CFL above 1 (the logical stream is larger
	// than its unique bytes), so it is reported uncapped.
	UniqueContainers  int     `json:"unique_containers"`
	OptimalContainers int     `json:"optimal_containers"`
	CFL               float64 `json:"cfl"`

	// ContainersPerMB is unique containers per logical MB — the
	// infinite-cache read cost per restored MB.
	ContainersPerMB float64 `json:"containers_per_mb"`

	// Utilization is live payload over stored payload, summed across
	// the referenced containers: how much of what those containers hold
	// is still alive (deletions and migration leave dead bytes behind).
	// ReferencedBytes narrows that to this version's own distinct
	// chunks, so ReferencedBytes/ContainerBytes is the fraction of the
	// fetched payload a restore of this version actually uses.
	Utilization     float64 `json:"utilization"`
	ReferencedBytes uint64  `json:"referenced_bytes"`
	ContainerBytes  uint64  `json:"container_bytes"`

	Policies []PolicyEstimate `json:"policies"`
}

// memFetcher serves pre-loaded containers, honoring ctx like the real
// store-backed fetcher. The policies' own counting wrappers tally Gets
// against it exactly as they would against the store.
type memFetcher map[container.ID]*container.Container

func (m memFetcher) Get(ctx context.Context, id container.ID) (*container.Container, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c, ok := m[id]
	if !ok {
		return nil, fmt.Errorf("layout: container %d not loaded", id)
	}
	return c, nil
}

// Analyze computes the layout report for one version's fully resolved
// recipe entries (every CID positive — engines resolve active and
// forward references first). Each referenced container is read from
// fetch exactly once, in first-reference order; capacity <= 0 means
// container.DefaultCapacity; a nil policies slice means
// DefaultPolicies, an empty one skips simulation. Utilization counts each
// image's own LiveSize, so fetch must serve the images a restore reads.
func Analyze(ctx context.Context, version int, entries []recipe.Entry, fetch restorecache.Fetcher, capacity int, policies []string) (*Report, error) {
	if capacity <= 0 {
		capacity = container.DefaultCapacity
	}
	if policies == nil {
		policies = DefaultPolicies
	}
	rep := &Report{Version: version, Chunks: len(entries)}

	// Load each referenced container's index once, in first-reference
	// order, and account the version's distinct chunks against it.
	loaded := make(memFetcher)
	var order []container.ID
	seenChunk := make(map[recipe.Entry]bool, len(entries))
	for i, e := range entries {
		if e.CID <= 0 {
			return nil, fmt.Errorf("layout: entry %d unresolved (CID %d); resolve the recipe first", i, e.CID)
		}
		rep.LogicalBytes += uint64(e.Size)
		id := container.ID(e.CID)
		ctn, ok := loaded[id]
		if !ok {
			var err error
			ctn, err = fetch.Get(ctx, id)
			if err != nil {
				return nil, fmt.Errorf("layout: load container %d: %w", id, err)
			}
			loaded[id] = ctn
			order = append(order, id)
			rep.ContainerBytes += uint64(ctn.DataSize())
			rep.Utilization += float64(ctn.LiveSize()) // summed, normalized below
		}
		ce, ok := ctn.Entry(e.FP)
		if !ok {
			return nil, fmt.Errorf("layout: chunk %s missing from container %d", e.FP, id)
		}
		if !seenChunk[e] {
			seenChunk[e] = true
			rep.ReferencedBytes += uint64(ce.Size)
		}
	}
	rep.UniqueContainers = len(order)
	rep.OptimalContainers = int((rep.LogicalBytes + uint64(capacity) - 1) / uint64(capacity))
	if rep.UniqueContainers > 0 {
		rep.CFL = float64(rep.OptimalContainers) / float64(rep.UniqueContainers)
	}
	if rep.LogicalBytes > 0 {
		rep.ContainersPerMB = float64(rep.UniqueContainers) / (float64(rep.LogicalBytes) / (1 << 20))
	}
	if rep.ContainerBytes > 0 {
		rep.Utilization /= float64(rep.ContainerBytes)
	} else {
		rep.Utilization = 0
	}

	// Replay the reference stream through each real policy.
	for _, name := range policies {
		c, err := restorecache.New(name)
		if err != nil {
			return nil, fmt.Errorf("layout: %w", err)
		}
		st, err := c.Restore(ctx, entries, loaded, io.Discard)
		if err != nil {
			return nil, fmt.Errorf("layout: simulate %s: %w", name, err)
		}
		rep.Policies = append(rep.Policies, PolicyEstimate{
			Policy:         name,
			ContainerReads: st.ContainerReads,
			CacheHits:      st.CacheHits,
			SpeedFactor:    st.SpeedFactor(),
		})
	}
	return rep, nil
}

// Render formats the report as aligned text tables.
func (r *Report) Render() string {
	t := metrics.NewTable(
		fmt.Sprintf("Layout: version %d — %.2f MB in %d chunks",
			r.Version, float64(r.LogicalBytes)/(1<<20), r.Chunks),
		"metric", "value")
	t.AddRow("unique containers", fmt.Sprintf("%d", r.UniqueContainers))
	t.AddRow("optimal containers", fmt.Sprintf("%d", r.OptimalContainers))
	t.AddRow("CFL", metrics.FormatFloat(r.CFL))
	t.AddRow("containers/MB", metrics.FormatFloat(r.ContainersPerMB))
	t.AddRow("utilization", metrics.FormatFloat(r.Utilization))
	t.AddRow("referenced MB", metrics.FormatFloat(float64(r.ReferencedBytes)/(1<<20)))
	t.AddRow("container MB", metrics.FormatFloat(float64(r.ContainerBytes)/(1<<20)))
	out := t.Render()
	if len(r.Policies) == 0 {
		return out
	}
	p := metrics.NewTable("Simulated restore cost per cache policy",
		"policy", "container reads", "cache hits", "speed factor (MB/read)")
	for _, est := range r.Policies {
		p.AddRow(est.Policy,
			fmt.Sprintf("%d", est.ContainerReads),
			fmt.Sprintf("%d", est.CacheHits),
			metrics.FormatFloat(est.SpeedFactor))
	}
	return out + "\n" + p.Render()
}
