// Package dedup implements the traditional destor-style deduplication
// engine the paper's baselines run on (§5.1): a staged pipeline of
// chunking, hashing, fingerprint indexing, optional duplicate rewriting,
// and container storage, with per-version recipes for restore.
//
// The engine is parameterized by a fingerprint index (DDFS, Sparse
// Indexing, SiLo), a rewriting scheme (none, capping, CBR, CFL, FBW, HAR)
// and a restore cache (container-LRU, chunk-LRU, FAA, ALACC), which spans
// the whole baseline matrix of the paper's evaluation.
package dedup

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"hidestore/internal/backup"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/fp"
	"hidestore/internal/index"
	"hidestore/internal/layout"
	"hidestore/internal/obs"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
	"hidestore/internal/rewrite"
)

// Config assembles an engine. Index, Store and Recipes are required.
type Config struct {
	// Chunking algorithm and size bounds (default TTTD with the paper's
	// 2/4/16 KB parameters).
	Chunker     chunker.Algorithm
	ChunkParams chunker.Params
	// Index classifies chunks (required).
	Index index.Index
	// Rewriter decides duplicate rewriting (default none). New sets the
	// container size the utility-based schemes compute against to
	// ContainerCapacity.
	Rewriter rewrite.Rewriter
	// RestoreCache drives restores (default FAA, destor's default §5.3).
	RestoreCache restorecache.Cache
	// Store persists containers (required).
	Store container.Store
	// Recipes persists recipes (required).
	Recipes recipe.Store
	// SegmentChunks is the indexing/rewriting segment length in chunks
	// (default 1024 ≈ 4 MB at 4 KB chunks).
	SegmentChunks int
	// ContainerCapacity in bytes (default container.DefaultCapacity).
	ContainerCapacity int
	// PrefetchDepth bounds the restore read-ahead window in distinct
	// containers: 0 selects restorecache.DefaultPrefetchDepth, negative
	// disables prefetching.
	PrefetchDepth int
	// HashWorkers parallelize fingerprinting (default 4).
	HashWorkers int
	// AsyncCommitDepth is the width of the backup's commit plane: how
	// many sealed containers may be in flight to the store while chunking
	// continues, with a fence before the recipe write. 0 selects
	// container.DefaultCommitDepth; negative commits each image before
	// the seal returns.
	AsyncCommitDepth int
	// Metrics, when set, mirrors backup/restore counters into the
	// registry; nil disables the observability plane.
	Metrics *obs.Registry
	// Tracer, when set, records per-operation spans as JSONL.
	Tracer *obs.Tracer
}

func (c *Config) setDefaults() error {
	if c.Index == nil {
		return errors.New("dedup: Config.Index is required")
	}
	if c.Store == nil {
		return errors.New("dedup: Config.Store is required")
	}
	if c.Recipes == nil {
		return errors.New("dedup: Config.Recipes is required")
	}
	if c.Chunker == 0 {
		c.Chunker = chunker.TTTD
	}
	if c.ChunkParams == (chunker.Params{}) {
		c.ChunkParams = chunker.DefaultParams()
	}
	if err := c.ChunkParams.Validate(); err != nil {
		return err
	}
	if c.Rewriter == nil {
		c.Rewriter = rewrite.NewNone()
	}
	if c.RestoreCache == nil {
		c.RestoreCache = restorecache.NewFAA(0)
	}
	if c.SegmentChunks <= 0 {
		c.SegmentChunks = 1024
	}
	if c.ContainerCapacity <= 0 {
		c.ContainerCapacity = container.DefaultCapacity
	}
	rewrite.SetContainerCapacity(c.Rewriter, c.ContainerCapacity)
	if c.HashWorkers <= 0 {
		c.HashWorkers = 4
	}
	return nil
}

// Engine is the baseline deduplicating backup engine. It is not safe for
// concurrent use: one Backup/Restore/Delete at a time.
type Engine struct {
	cfg Config

	nextVersion int
	nextCID     container.ID

	logicalBytes uint64
	storedBytes  uint64

	// ingest and restore are the write and read paths shared with the
	// HiDeStore engine (internal/backup); this engine supplies the policy:
	// index + rewriter classification by segment, append-only containers.
	ingest  *backup.Ingester
	restore backup.RestoreDriver
}

var (
	_ backup.Engine         = (*Engine)(nil)
	_ backup.LayoutAnalyzer = (*Engine)(nil)
)

// New creates an engine from cfg.
func New(cfg Config) (*Engine, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	return &Engine{
		cfg: cfg,
		ingest: backup.NewIngester(backup.IngestConfig{
			Chunker:     cfg.Chunker,
			ChunkParams: cfg.ChunkParams,
			HashWorkers: cfg.HashWorkers,
			Store:       cfg.Store,
			CommitDepth: cfg.AsyncCommitDepth,
			Metrics:     obs.NewBackupMetrics(cfg.Metrics),
			Tracer:      cfg.Tracer,
		}),
		restore: backup.RestoreDriver{
			Recipes:           cfg.Recipes,
			Store:             cfg.Store,
			ContainerCapacity: cfg.ContainerCapacity,
			Cache:             cfg.RestoreCache,
			PrefetchDepth:     cfg.PrefetchDepth,
			Metrics:           obs.NewRestoreMetrics(cfg.Metrics),
			Tracer:            cfg.Tracer,
		},
	}, nil
}

// Backup implements backup.Engine.
func (e *Engine) Backup(ctx context.Context, version io.Reader) (rep backup.BackupReport, retErr error) {
	in, err := e.ingest.Begin(ctx)
	if err != nil {
		return backup.BackupReport{}, err
	}
	defer in.End(&retErr)
	v := e.nextVersion + 1
	indexBefore := e.cfg.Index.Stats()
	rewriteBefore := e.cfg.Rewriter.Stats()

	rec := recipe.New(v)
	session := &backupSession{engine: e, recipe: rec, placed: make(map[fp.FP]container.ID)}
	// A sealed image is read-only from here on; this engine never mutates
	// one during a backup. Not pre-sized, unlike HiDeStore's actives:
	// opening these at full capacity lowered kernel-ddfs restore_mbps in
	// 4/4 pairs on the 2-CPU reference host (−4 … −12 %), for a reason not
	// yet known (ROADMAP, known unknown (f)).
	session.open = &container.Packer{NextID: &e.nextCID, Capacity: e.cfg.ContainerCapacity, Seal: in.Writer.Put}
	// No speculative probe: the indexes classify by segment, in order. No
	// resident chunks either: this engine keeps none in memory, so a cut
	// confirmed from the previous version is proven by its SHA-1.
	if err := in.Run(ctx, version, nil, nil, session.push); err != nil {
		return backup.BackupReport{}, err
	}
	if err := session.flush(); err != nil {
		return backup.BackupReport{}, err
	}
	// Durable commit order: containers before the recipe. Sealing the
	// open container first means every chunk the recipe names is on disk
	// when the recipe appears — a crash between the two leaves an
	// orphaned container (wasted space), never a dangling recipe entry
	// (data loss). The fence returns only when every container handed to
	// the commit plane is durably in the store.
	if err := session.open.Flush(); err != nil {
		return backup.BackupReport{}, err
	}
	if err := in.Writer.Barrier(); err != nil {
		return backup.BackupReport{}, err
	}
	if err := e.cfg.Recipes.Put(rec); err != nil {
		return backup.BackupReport{}, err
	}
	e.cfg.Index.EndVersion()
	e.cfg.Rewriter.EndVersion()
	e.nextVersion = v
	e.logicalBytes += in.LogicalBytes
	e.storedBytes += session.storedBytes
	// The baseline writes each stored chunk once and never moves it, so
	// its container bytes written are its stored bytes.
	rep = in.Report(v, session.storedBytes, session.uniqueChunks, session.storedBytes)
	rep.IndexStats = e.cfg.Index.Stats().Sub(indexBefore)
	rep.RewriteStats = diffRewriteStats(rewriteBefore, e.cfg.Rewriter.Stats())
	return rep, nil
}

// backupSession accumulates one version's state.
type backupSession struct {
	engine *Engine
	recipe *recipe.Recipe

	// refs and chunks are the open segment: each chunk's fingerprint and
	// size, and the chunk itself (a slab view), held until the segment is
	// classified.
	refs   []index.ChunkRef
	chunks []backup.Chunk
	// open packs stored chunks into containers in arrival order, sealing
	// each full one into the commit plane.
	open *container.Packer
	// placed maps fingerprints stored in this session to their container,
	// resolving intra-version pending duplicates.
	placed map[fp.FP]container.ID

	storedBytes  uint64
	uniqueChunks int
}

// push is the ingest skeleton's in-order sink: it buffers the chunk into
// the open indexing segment and classifies the segment once it is full.
// The segment is bounded by SegmentChunks, not by the skeleton's in-flight
// cap: the slabs its chunks point into stay out of the pool until the
// segment releases them, but no longer count against the pipeline's.
func (s *backupSession) push(c backup.Chunk) error {
	if s.refs == nil {
		// A fresh slice per segment: the index and rewriter may keep refs.
		s.refs = make([]index.ChunkRef, 0, s.engine.cfg.SegmentChunks)
	}
	s.refs = append(s.refs, index.ChunkRef{FP: c.FP, Size: uint32(len(c.Data))})
	s.chunks = append(s.chunks, c)
	if len(s.refs) >= s.engine.cfg.SegmentChunks {
		return s.processSegment()
	}
	return nil
}

func (s *backupSession) flush() error {
	if len(s.refs) == 0 {
		return nil
	}
	return s.processSegment()
}

func (s *backupSession) processSegment() error {
	e := s.engine
	refs, chunks := s.refs, s.chunks
	s.refs, s.chunks = nil, s.chunks[:0] // every chunk is released below

	results := e.cfg.Index.Dedup(refs)

	view := make([]rewrite.Chunk, len(refs))
	for i, r := range refs {
		view[i] = rewrite.Chunk{
			FP:        r.FP,
			Size:      r.Size,
			Duplicate: results[i].Duplicate,
			CID:       results[i].CID,
		}
	}
	plan := e.cfg.Rewriter.Plan(view)

	cids := make([]container.ID, len(refs))
	for i, r := range refs {
		switch {
		case !results[i].Duplicate || plan[i]:
			cid, err := s.store(r.FP, chunks[i].Data)
			if err != nil {
				return err
			}
			cids[i] = cid
			s.placed[r.FP] = cid
			s.storedBytes += uint64(r.Size)
			s.uniqueChunks++
		case results[i].CID != 0:
			cids[i] = results[i].CID
		default:
			cid, ok := s.placed[r.FP]
			if !ok {
				return fmt.Errorf("dedup: pending duplicate %s has no placement", r.FP.Short())
			}
			cids[i] = cid
		}
		s.recipe.Append(r.FP, r.Size, int32(cids[i]))
		// Duplicate, or copied into the open container by Add: either
		// way the slab view is done.
		chunks[i].Release()
	}
	e.cfg.Index.Commit(refs, cids)
	e.cfg.Rewriter.Committed(view, cids)
	return nil
}

// store appends a chunk payload to the open container and returns the ID
// of the container holding the chunk.
func (s *backupSession) store(f fp.FP, data []byte) (container.ID, error) {
	cid, err := s.open.Add(f, data)
	if errors.Is(err, container.ErrDuplicate) {
		// A rewritten duplicate may collide with a copy already in the open
		// container; referencing that copy is equivalent.
		return cid, nil
	}
	return cid, err
}

// Restore implements backup.Engine. Baseline recipes already carry
// positive container IDs, so the shared driver replays them as stored.
func (e *Engine) Restore(ctx context.Context, version int, w io.Writer) (backup.RestoreReport, error) {
	return e.restore.Restore(ctx, version, w, false, nil)
}

// AnalyzeLayout implements backup.LayoutAnalyzer on the stream Restore
// replays — the recipe as stored — so the simulated container-read counts
// match a real restore's exactly.
func (e *Engine) AnalyzeLayout(ctx context.Context, version int, policies []string) (*layout.Report, error) {
	return e.restore.AnalyzeLayout(ctx, version, policies, nil)
}

// Delete implements backup.Engine: the traditional mark-and-sweep path
// the paper contrasts with HiDeStore's free deletion (§5.5). Every
// remaining recipe is scanned to build the live set, then every container
// is swept: dead chunks are dropped, emptied containers deleted, partially
// dead containers compacted and rewritten.
func (e *Engine) Delete(version int) (report backup.DeleteReport, retErr error) {
	start := time.Now()
	report = backup.DeleteReport{Version: version}
	if err := e.ingest.Failed(); err != nil {
		return report, err
	}
	present, err := e.cfg.Recipes.Has(version)
	if err != nil {
		return report, err
	}
	if !present {
		return report, fmt.Errorf("%w: version %d", recipe.ErrNotFound, version)
	}
	// Past the precondition a failure leaves the sweep half done and the
	// byte counts ahead of the store: latch, as Backup does.
	defer e.ingest.FailOn(&retErr)
	// Durable commit order (reverse of Backup's): the recipe goes first,
	// so a crash mid-sweep leaves orphaned chunks (reclaimed by a later
	// delete's sweep), never a listed version with missing chunks.
	if err := e.cfg.Recipes.Delete(version); err != nil {
		return report, err
	}
	// Mark: every chunk referenced by any remaining version.
	live := make(map[fp.FP]struct{})
	remaining, err := e.cfg.Recipes.Versions()
	if err != nil {
		return report, err
	}
	for _, v := range remaining {
		rec, err := e.cfg.Recipes.Get(v)
		if err != nil {
			return report, err
		}
		report.ChunksScanned += rec.NumChunks()
		for _, entry := range rec.Entries {
			live[entry.FP] = struct{}{}
		}
	}
	// Sweep: every container.
	stored, err := e.cfg.Store.IDs()
	if err != nil {
		return report, err
	}
	for _, cid := range stored {
		ctn, err := e.cfg.Store.Get(cid)
		if err != nil {
			return report, err
		}
		dead := 0
		var deadBytes uint64
		fps := ctn.Fingerprints()
		report.ChunksScanned += len(fps)
		for _, f := range fps {
			if _, ok := live[f]; ok {
				continue
			}
			entry, _ := ctn.Entry(f)
			deadBytes += uint64(entry.Size)
			dead++
		}
		switch {
		case dead == 0:
			continue
		case dead == len(fps):
			if err := e.cfg.Store.Delete(cid); err != nil {
				return report, err
			}
			report.ContainersDeleted++
		default:
			// Compact the survivors into a rewritten container image. This
			// is the one container write outside the commit plane, by
			// design: GC compaction rewrites an ID in place, synchronously,
			// while the plane's contract is write-once images under fresh
			// IDs with fences placed by a running Backup.
			kept := ctn.Clone()
			for _, f := range fps {
				if _, ok := live[f]; !ok {
					if err := kept.Remove(f); err != nil {
						return report, err
					}
				}
			}
			if err := e.cfg.Store.Put(kept.Compacted(cid)); err != nil {
				return report, err
			}
			report.ContainersRewritten++
		}
		report.BytesReclaimed += deadBytes
		e.storedBytes -= deadBytes
	}
	report.Duration = time.Since(start)
	return report, nil
}

// Versions implements backup.Engine. An enumeration failure yields an
// empty list; Stats().Degraded carries the underlying error.
func (e *Engine) Versions() []int {
	vs, err := e.cfg.Recipes.Versions()
	if err != nil {
		return nil
	}
	sort.Ints(vs)
	return vs
}

// Stats implements backup.Engine. Fields that cannot be computed are
// left zero and named in Degraded.
func (e *Engine) Stats() backup.Stats {
	s := backup.Stats{
		LogicalBytes:  e.logicalBytes,
		StoredBytes:   e.storedBytes,
		IndexStats:    e.cfg.Index.Stats(),
		IndexMemBytes: e.cfg.Index.MemoryBytes(),
		RewriteStats:  e.cfg.Rewriter.Stats(),
	}
	if vs, err := e.cfg.Recipes.Versions(); err != nil {
		s.Degraded = append(s.Degraded, fmt.Sprintf("versions: %v", err))
	} else {
		s.Versions = len(vs)
	}
	if n, err := e.cfg.Store.Len(); err != nil {
		s.Degraded = append(s.Degraded, fmt.Sprintf("containers: %v", err))
	} else {
		s.Containers = n
	}
	if err := e.ingest.Failed(); err != nil {
		s.Degraded = append(s.Degraded, err.Error())
	}
	return s
}

func diffRewriteStats(before, after rewrite.Stats) rewrite.Stats {
	return rewrite.Stats{
		Duplicates:      after.Duplicates - before.Duplicates,
		Rewritten:       after.Rewritten - before.Rewritten,
		RewrittenBytes:  after.RewrittenBytes - before.RewrittenBytes,
		DuplicateBytes:  after.DuplicateBytes - before.DuplicateBytes,
		SegmentsPlanned: after.SegmentsPlanned - before.SegmentsPlanned,
	}
}
