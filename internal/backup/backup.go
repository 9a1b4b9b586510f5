// Package backup defines the engine abstraction shared by the baseline
// destor-style engine (internal/dedup) and the HiDeStore engine
// (internal/core): backing up version streams, restoring them, deleting
// expired versions, and reporting the metrics the paper's evaluation is
// built from.
package backup

import (
	"context"
	"fmt"
	"io"
	"time"

	"hidestore/internal/index"
	"hidestore/internal/layout"
	"hidestore/internal/restorecache"
	"hidestore/internal/rewrite"
)

// BackupReport summarizes one version's deduplication.
type BackupReport struct {
	// Version is the version number assigned (1-based, sequential).
	Version int
	// LogicalBytes is the size of the incoming stream.
	LogicalBytes uint64
	// StoredBytes is the payload newly written to containers (unique +
	// rewritten chunks).
	StoredBytes uint64
	// Chunks and UniqueChunks count the stream's chunks and how many were
	// stored.
	Chunks       int
	UniqueChunks int
	// ContainerBytesWritten is the payload of every container image the
	// version put — StoredBytes plus whatever maintenance copied:
	// MigratedBytes into archival containers (HiDeStore's cold chunks)
	// and MergedBytes into repacked sparse containers. Written over
	// LogicalBytes is the version's write amplification.
	ContainerBytesWritten uint64
	MigratedBytes         uint64
	MergedBytes           uint64
	// ScannedBytes is the length of every chunk the ingest scanned for
	// its cut, speculative ones included; the rest it confirmed from the
	// previous backup's successor table without a scan (DESIGN §2).
	// Over LogicalBytes it is the version's scan share.
	ScannedBytes uint64
	// HashedBytes is what SHA-1 read for the version: every chunk the
	// ingest scanned, once, and on an engine that keeps no chunk bytes in
	// memory (the baseline) every cut it confirmed too, whose proof is the
	// hash. HiDeStore proves a confirmed cut against the chunk's resident
	// copy instead, so there it is about ScannedBytes. Over LogicalBytes
	// it is the version's hash share.
	HashedBytes uint64
	// CommitWait is how long the engine goroutine was blocked on the
	// commit plane: waiting for one of its in-flight slots at a seal, and
	// at the fences before the recipe and state writes. The rest of the
	// store's write latency was hidden behind chunking and packing.
	CommitWait time.Duration
	// IndexStats snapshots the index counters for this version alone.
	IndexStats index.Stats
	// RewriteStats snapshots rewriting counters for this version alone
	// (zero-valued for engines that never rewrite).
	RewriteStats rewrite.Stats
	// Duration is the wall time of the dedup phase.
	Duration time.Duration
	// MaintenanceDuration is HiDeStore's post-version work: migrating
	// cold chunks, merging sparse containers and updating the previous
	// recipe (§5.4, Figure 12). Zero for the baseline engine.
	MaintenanceDuration time.Duration
	// MigrateDuration is the move-chunks + merge-sparse-containers part
	// of maintenance (Figure 12's "moving chunks" series).
	MigrateDuration time.Duration
	// RecipeUpdateDuration is the previous-recipe rewrite part of
	// maintenance (Figure 12's "updating recipes" series).
	RecipeUpdateDuration time.Duration
}

// DedupRatio is eliminated bytes over logical bytes for this version.
func (r BackupReport) DedupRatio() float64 {
	if r.LogicalBytes == 0 {
		return 0
	}
	return float64(r.LogicalBytes-r.StoredBytes) / float64(r.LogicalBytes)
}

// RestoreReport summarizes one restore run.
type RestoreReport struct {
	Version int
	Stats   restorecache.Stats
	// Duration includes following the recipe's forward pointers, if any.
	Duration time.Duration
	// RecipeUpdateDuration is the time spent following forward pointers
	// into newer recipes — Algorithm 1, for this one version (HiDeStore
	// only; zero for the baseline engine and for a version that needed
	// none followed).
	RecipeUpdateDuration time.Duration
	// RecipesRead counts the recipe reads the restore issued: the
	// version's own plus the newer ones its forward pointers led to. An
	// exact work count, the same on every run over the same store.
	RecipesRead uint64
	// ResidentReads counts the container reads served from memory instead
	// of the store: HiDeStore's active images, and the driver's kept set
	// (either engine) — images plain restores read, and the archival
	// images HiDeStore's backups wrote, since the engine last changed a
	// stored image. Zero for a verifying restore. Each is also in
	// Stats.ContainerReads: the store served the rest.
	ResidentReads uint64
}

// DeleteReport summarizes removing an expired version.
type DeleteReport struct {
	Version int
	// ContainersDeleted counts containers removed outright.
	ContainersDeleted int
	// ContainersRewritten counts containers compacted in place (baseline
	// garbage collection; always zero for HiDeStore, §5.5).
	ContainersRewritten int
	// ChunksScanned is the reference-detection effort: how many chunk
	// references had to be examined to decide what was garbage.
	ChunksScanned int
	// BytesReclaimed is the payload space freed.
	BytesReclaimed uint64
	Duration       time.Duration
}

// Stats is an engine-wide snapshot.
type Stats struct {
	Versions      int
	LogicalBytes  uint64
	StoredBytes   uint64
	Containers    int
	IndexStats    index.Stats
	IndexMemBytes int64
	RewriteStats  rewrite.Stats
	// Degraded names snapshot fields that could not be computed (e.g. a
	// container directory that failed to enumerate), with the reason,
	// plus any persistent damage the online scrubber has found ("scrub:"
	// prefixed). Empty means every field above is trustworthy and no
	// scrubbed container was corrupt. Stats itself stays infallible — a
	// monitoring read must not fail outright because one counter is
	// unavailable — but the gap is flagged, not silent.
	Degraded []string
}

// DedupRatio is the cumulative eliminated-bytes ratio (the paper's
// Figure 8 metric: eliminated size / dataset size).
func (s Stats) DedupRatio() float64 {
	if s.LogicalBytes == 0 {
		return 0
	}
	return float64(s.LogicalBytes-s.StoredBytes) / float64(s.LogicalBytes)
}

// CheckReport summarizes an integrity check (fsck) of a backup store.
type CheckReport struct {
	// Versions and Chunks are the recipes walked and entries resolved.
	Versions int
	Chunks   int
	// Containers and StoredChunks are the container images verified.
	Containers   int
	StoredChunks int
	// Problems lists every inconsistency found, in discovery order.
	Problems []string
}

// OK reports whether the check found no problems.
func (r CheckReport) OK() bool { return len(r.Problems) == 0 }

// Problemf appends a formatted problem.
func (r *CheckReport) Problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Checker is implemented by engines that support offline integrity
// verification.
type Checker interface {
	// Check verifies containers, chunk contents and recipe resolvability
	// without mutating anything.
	Check() (CheckReport, error)
}

// RepairReport summarizes a repairing integrity check (fsck -repair).
// The embedded CheckReport lists what the pass found, including the
// problems the quarantines resolve.
type RepairReport struct {
	CheckReport
	// Quarantined lists the destination paths of container images moved
	// aside because they failed to decode or CRC-check.
	Quarantined []string
	// AffectedVersions lists (ascending) the versions with at least one
	// chunk lost to a quarantined container — the versions an operator
	// must re-seed or accept as damaged.
	AffectedVersions []int
}

// Repairer is implemented by engines whose integrity check can also
// repair: corrupt containers are quarantined (moved aside, never
// deleted) and the versions that lost chunks to them are named.
type Repairer interface {
	Repair() (RepairReport, error)
}

// ScrubStepReport describes one online-scrubber step: one container
// image content-verified (or skipped).
type ScrubStepReport struct {
	// Container is the verified container's ID; 0 when Skipped.
	Container uint64
	// Chunks and Bytes are the stored chunks and payload bytes verified
	// by this step — the step's I/O cost, which throttles the caller.
	Chunks int
	Bytes  uint64
	// Corrupt describes damage that survived the definitive re-read
	// ("" when the container is healthy). Transient read failures that
	// the re-read absorbs are not reported.
	Corrupt string
	// Quarantined is the path the corrupt image was moved to ("" when
	// nothing was quarantined — healthy, or the store cannot).
	Quarantined string
	// PassComplete is true when this step verified the cycle's last
	// container; the next step snapshots a fresh container list.
	PassComplete bool
	// Skipped is true when there was nothing to verify (empty store, or
	// the cursor's container was legitimately deleted since the
	// snapshot).
	Skipped bool
}

// Scrubber is implemented by engines that support online integrity
// scrubbing: continuous VerifyRestore-style verification of container
// images, one container per step so the caller controls the I/O
// throttle. Steps must be serialized with the engine's other
// operations by the caller (engines are single-writer).
type Scrubber interface {
	ScrubStep(ctx context.Context) (ScrubStepReport, error)
}

// ScrubProgressReporter exposes the online scrubber's cursor: how many
// containers of the current pass's snapshot have been verified. done
// equals total between passes (or before the first step). Implemented
// alongside Scrubber; the ops /healthz endpoint reads it.
type ScrubProgressReporter interface {
	ScrubProgress() (done, total int)
}

// LayoutAnalyzer is implemented by engines that can compute a
// version's physical-locality profile — fragmentation, container
// utilization, simulated per-policy restore cost — without performing
// a restore and without mutating any stored state.
type LayoutAnalyzer interface {
	AnalyzeLayout(ctx context.Context, version int, policies []string) (*layout.Report, error)
}

// Engine is a deduplicating backup system.
type Engine interface {
	// Backup deduplicates one version stream and persists it. Versions
	// are numbered sequentially from 1.
	Backup(ctx context.Context, version io.Reader) (BackupReport, error)
	// Restore reassembles a stored version into w.
	Restore(ctx context.Context, version int, w io.Writer) (RestoreReport, error)
	// Delete removes an expired version and reclaims its exclusive space.
	Delete(version int) (DeleteReport, error)
	// Versions lists stored version numbers in ascending order.
	Versions() []int
	// Stats returns an engine-wide snapshot.
	Stats() Stats
}
