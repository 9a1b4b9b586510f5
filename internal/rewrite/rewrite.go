// Package rewrite implements the duplicate-rewriting schemes the paper
// compares HiDeStore against (§5.3): Capping and FBW (ALACC's sliding
// look-back window).
//
// Rewriting attacks chunk fragmentation from the write path: a duplicate
// chunk whose existing copy lives in a container that contributes little
// to the current stream is stored *again* in a fresh container, so the
// stream's chunks end up physically closer. The cost is exactly what the
// paper criticizes: every rewritten duplicate is stored twice, so the
// deduplication ratio drops (Figure 8), and more and more chunks must be
// rewritten as fragmentation grows over versions.
//
// A Rewriter inspects one segment of classified chunks at a time and
// returns, per chunk, whether the engine should rewrite it. Rewriters see
// duplicates with their existing container IDs, mirroring the information
// a destor-style pipeline has at the rewrite phase.
package rewrite

import (
	"hidestore/internal/container"
	"hidestore/internal/fp"
)

// Chunk is the rewrite phase's view of one classified chunk.
type Chunk struct {
	FP   fp.FP
	Size uint32
	// Duplicate reports the index's classification.
	Duplicate bool
	// CID is the container holding the existing copy of a duplicate
	// (0 when unique or when the duplicate is pending in this session).
	CID container.ID
}

// Stats counts rewrite activity. RewrittenBytes is the extra space a
// scheme burns — the quantity behind Figure 8's ratio loss.
type Stats struct {
	Duplicates      uint64
	Rewritten       uint64
	RewrittenBytes  uint64
	DuplicateBytes  uint64
	SegmentsPlanned uint64
}

// Rewriter decides which duplicates to rewrite.
type Rewriter interface {
	// Name identifies the scheme ("none", "capping", "fbw").
	Name() string
	// Plan returns a slice the same length as seg; true at i means seg[i]
	// (which must be a duplicate) should be rewritten.
	Plan(seg []Chunk) []bool
	// Committed tells the rewriter the final placement of the segment's
	// chunks. No scheme here reads it.
	Committed(seg []Chunk, cids []container.ID)
	// EndVersion marks a backup-version boundary.
	EndVersion()
	// Stats returns cumulative counters.
	Stats() Stats
}

// New returns a default-configured rewriter by scheme name.
func New(name string) (Rewriter, error) {
	switch name {
	case "none", "":
		return NewNone(), nil
	case "capping":
		return NewCapping(0), nil
	case "fbw":
		return NewFBW(), nil
	default:
		return nil, &UnknownSchemeError{Name: name}
	}
}

// UnknownSchemeError reports an unrecognized rewriter name.
type UnknownSchemeError struct{ Name string }

func (e *UnknownSchemeError) Error() string {
	return "rewrite: unknown scheme " + e.Name
}

// None never rewrites: the exact-deduplication baseline whose restore
// performance degrades fastest (Figure 11 "baseline").
type None struct {
	stats Stats
}

var _ Rewriter = (*None)(nil)

// NewNone returns the no-rewrite baseline.
func NewNone() *None { return &None{} }

// Name implements Rewriter.
func (n *None) Name() string { return "none" }

// Plan implements Rewriter.
func (n *None) Plan(seg []Chunk) []bool {
	n.stats.SegmentsPlanned++
	for _, c := range seg {
		if c.Duplicate {
			n.stats.Duplicates++
			n.stats.DuplicateBytes += uint64(c.Size)
		}
	}
	return make([]bool, len(seg))
}

// Committed implements Rewriter.
func (n *None) Committed([]Chunk, []container.ID) {}

// EndVersion implements Rewriter.
func (n *None) EndVersion() {}

// Stats implements Rewriter.
func (n *None) Stats() Stats { return n.stats }

// markDuplicates tallies duplicate counters shared by all schemes.
func markDuplicates(st *Stats, seg []Chunk) {
	st.SegmentsPlanned++
	for _, c := range seg {
		if c.Duplicate {
			st.Duplicates++
			st.DuplicateBytes += uint64(c.Size)
		}
	}
}

// markRewrites tallies the planned rewrites in plan.
func markRewrites(st *Stats, seg []Chunk, plan []bool) {
	for i, rw := range plan {
		if rw {
			st.Rewritten++
			st.RewrittenBytes += uint64(seg[i].Size)
		}
	}
}

// containerUsage sums, per referenced container, the bytes the segment's
// duplicates draw from it.
func containerUsage(seg []Chunk) map[container.ID]uint64 {
	usage := make(map[container.ID]uint64)
	for _, c := range seg {
		if c.Duplicate && c.CID != 0 {
			usage[c.CID] += uint64(c.Size)
		}
	}
	return usage
}
