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
	"hidestore/internal/bufpool"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/fp"
	"hidestore/internal/index"
	"hidestore/internal/obs"
	"hidestore/internal/pipeline"
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
	// Rewriter decides duplicate rewriting (default none).
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
	// RestoreWorkers parallelize the restore's fetch and assembly
	// stages (see core.Config.RestoreWorkers); 0 or 1 restores serially.
	RestoreWorkers int
	// HashWorkers parallelize fingerprinting (default 4).
	HashWorkers int
	// ChunkLanes parallelize chunking itself: the input is split into
	// per-batch lane segments, chunked speculatively, and re-stitched so
	// the chunk sequence is bit-identical to single-lane chunking. 0 or
	// 1 chunks sequentially.
	ChunkLanes int
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
	if c.HashWorkers <= 0 {
		c.HashWorkers = 4
	}
	if c.ChunkLanes <= 0 {
		c.ChunkLanes = 1
	}
	return nil
}

// Engine is the baseline deduplicating backup engine. It is not safe for
// concurrent use: one Backup/Restore/Delete at a time.
type Engine struct {
	cfg Config

	nextVersion int
	nextCID     container.ID
	open        *container.Container

	logicalBytes uint64
	storedBytes  uint64

	// pool recycles chunk buffers through the backup hot loop; the
	// segment processor releases each buffer once the payload is
	// classified duplicate or copied into a container.
	pool *bufpool.Pool
	// writer is the commit plane every container of the running Backup
	// is written through; nil between backups.
	writer *container.AsyncWriter

	// Observability bundles; nil when Config.Metrics is nil.
	mx     *obs.BackupMetrics
	rmx    *obs.RestoreMetrics
	tracer *obs.Tracer
}

var _ backup.Engine = (*Engine)(nil)

// New creates an engine from cfg.
func New(cfg Config) (*Engine, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	return &Engine{
		cfg:    cfg,
		pool:   bufpool.New(cfg.ChunkParams.Max),
		mx:     obs.NewBackupMetrics(cfg.Metrics),
		rmx:    obs.NewRestoreMetrics(cfg.Metrics),
		tracer: cfg.Tracer,
	}, nil
}

// rawBufDepth and hashedBufDepth size the backup pipeline's channels;
// with HashWorkers they set the sink's reorder credit cap (see Backup).
const (
	rawBufDepth    = 64
	hashedBufDepth = 64
)

// hashedChunk is one chunk flowing through the backup pipeline. data is
// a pool-owned buffer, released by the segment processor once the
// payload is classified duplicate or copied into a container.
type hashedChunk struct {
	seq  int
	fp   fp.FP
	data []byte
}

// Backup implements backup.Engine.
func (e *Engine) Backup(ctx context.Context, version io.Reader) (rep backup.BackupReport, retErr error) {
	start := time.Now()
	v := e.nextVersion + 1
	indexBefore := e.cfg.Index.Stats()
	rewriteBefore := e.cfg.Rewriter.Stats()

	rec := recipe.New(v)
	session := &backupSession{engine: e, recipe: rec}

	ch, err := chunker.NewParallelPooled(e.cfg.Chunker, version, e.cfg.ChunkParams, e.cfg.ChunkLanes, e.pool)
	if err != nil {
		return backup.BackupReport{}, err
	}
	e.writer = container.NewAsyncWriter(ctx, e.cfg.Store, e.cfg.AsyncCommitDepth,
		func(c *container.Container, t0 time.Time, d time.Duration) {
			if e.mx != nil {
				e.mx.ContainerWriteNS.Observe(uint64(d))
			}
			if e.tracer != nil {
				e.tracer.EmitStage("container.flush.async", nil, t0, d,
					map[string]int64{"container": int64(c.ID()), "bytes": int64(c.LiveSize())})
			}
		})
	defer func() {
		// Every return, early errors included, joins the plane's
		// goroutines: no commit may outlive Backup or fail unreported.
		if werr := e.writer.Barrier(); werr != nil && retErr == nil {
			retErr = werr
		}
		e.writer = nil
	}()
	g, gctx := pipeline.WithContext(ctx)
	// credits bounds chunks in flight between the chunker and the
	// in-order sink, capping the sink's reorder map (see the core
	// engine's Backup for the full argument).
	credits := make(chan struct{}, rawBufDepth+hashedBufDepth+e.cfg.HashWorkers+1)
	raw := pipeline.Produce(g, rawBufDepth, func(emit func(hashedChunk) bool) error {
		for seq := 0; ; seq++ {
			data, err := ch.Next()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return fmt.Errorf("dedup: chunking: %w", err)
			}
			select {
			case credits <- struct{}{}:
			case <-gctx.Done():
				return nil
			}
			if !emit(hashedChunk{seq: seq, data: data}) {
				return nil
			}
		}
	})
	hashed := pipeline.Transform(g, e.cfg.HashWorkers, hashedBufDepth, raw, func(c hashedChunk) (hashedChunk, error) {
		c.fp = fp.Of(c.data)
		return c, nil
	})
	// The sink reorders the (possibly out-of-order) hashed chunks back
	// into stream order and assembles indexing segments. A credit is
	// returned as soon as a chunk is handed to the session in order —
	// the session's segment buffer is bounded by SegmentChunks, not by
	// the credit cap.
	reorder := make(map[int]hashedChunk)
	next := 0
	pipeline.Sink(g, hashed, func(c hashedChunk) error {
		reorder[c.seq] = c
		for {
			item, ok := reorder[next]
			if !ok {
				return nil
			}
			delete(reorder, next)
			next++
			err := session.push(item)
			<-credits
			if err != nil {
				return err
			}
		}
	})
	if err := g.Wait(); err != nil {
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
	if err := e.sealOpen(); err != nil {
		return backup.BackupReport{}, err
	}
	if err := e.writer.Barrier(); err != nil {
		return backup.BackupReport{}, err
	}
	commitWait := e.writer.Blocked()
	if err := e.cfg.Recipes.Put(rec); err != nil {
		return backup.BackupReport{}, err
	}
	e.cfg.Index.EndVersion()
	e.cfg.Rewriter.EndVersion()
	e.nextVersion = v
	e.logicalBytes += session.logicalBytes
	e.storedBytes += session.storedBytes
	if e.mx != nil {
		e.mx.Versions.Inc()
		e.mx.LogicalBytes.Add(session.logicalBytes)
		e.mx.StoredBytes.Add(session.storedBytes)
		e.mx.ContainerBytesWritten.Add(session.storedBytes)
		e.mx.CommitWaitNS.Add(uint64(commitWait))
		e.mx.Chunks.Add(uint64(session.chunks))
		e.mx.UniqueChunks.Add(uint64(session.uniqueChunks))
		ps := e.pool.Stats()
		e.mx.PoolInUse.Set(ps.InUse)
		e.mx.PoolInUseBytes.Set(ps.InUseBytes)
		e.mx.PoolSlabs.Set(int64(ps.SlabAllocs))
	}
	// The whole backup is one wall interval here (no sub-stage timing in
	// the baseline engine), so a stage record suffices.
	e.tracer.EmitStage("backup", nil, start, time.Since(start),
		map[string]int64{"version": int64(v), "bytes": int64(session.logicalBytes), "chunks": int64(session.chunks)})

	indexAfter := e.cfg.Index.Stats()
	rewriteAfter := e.cfg.Rewriter.Stats()
	return backup.BackupReport{
		Version:      v,
		LogicalBytes: session.logicalBytes,
		StoredBytes:  session.storedBytes,
		Chunks:       session.chunks,
		UniqueChunks: session.uniqueChunks,
		// The baseline writes each stored chunk once and never moves it.
		ContainerBytesWritten: session.storedBytes,
		CommitWait:            commitWait,
		IndexStats:            diffIndexStats(indexBefore, indexAfter),
		RewriteStats:          diffRewriteStats(rewriteBefore, rewriteAfter),
		Duration:              time.Since(start),
	}, nil
}

// backupSession accumulates one version's state.
type backupSession struct {
	engine *Engine
	recipe *recipe.Recipe

	seg []hashedChunk
	// placed maps fingerprints stored in this session to their container,
	// resolving intra-version pending duplicates.
	placed map[fp.FP]container.ID

	logicalBytes uint64
	storedBytes  uint64
	chunks       int
	uniqueChunks int
}

func (s *backupSession) push(c hashedChunk) error {
	s.seg = append(s.seg, c)
	if len(s.seg) >= s.engine.cfg.SegmentChunks {
		return s.processSegment()
	}
	return nil
}

func (s *backupSession) flush() error {
	if len(s.seg) == 0 {
		return nil
	}
	return s.processSegment()
}

func (s *backupSession) processSegment() error {
	e := s.engine
	seg := s.seg
	s.seg = nil
	if s.placed == nil {
		s.placed = make(map[fp.FP]container.ID)
	}

	refs := make([]index.ChunkRef, len(seg))
	for i, c := range seg {
		refs[i] = index.ChunkRef{FP: c.fp, Size: uint32(len(c.data))}
	}
	results := e.cfg.Index.Dedup(refs)

	view := make([]rewrite.Chunk, len(seg))
	for i, c := range seg {
		view[i] = rewrite.Chunk{
			FP:        c.fp,
			Size:      uint32(len(c.data)),
			Duplicate: results[i].Duplicate,
			CID:       results[i].CID,
		}
	}
	plan := e.cfg.Rewriter.Plan(view)

	cids := make([]container.ID, len(seg))
	for i, c := range seg {
		s.logicalBytes += uint64(len(c.data))
		s.chunks++
		switch {
		case !results[i].Duplicate || plan[i]:
			cid, err := e.store(c.fp, c.data)
			if err != nil {
				return err
			}
			cids[i] = cid
			s.placed[c.fp] = cid
			s.storedBytes += uint64(len(c.data))
			s.uniqueChunks++
		case results[i].CID != 0:
			cids[i] = results[i].CID
		default:
			cid, ok := s.placed[c.fp]
			if !ok {
				return fmt.Errorf("dedup: pending duplicate %s has no placement", c.fp.Short())
			}
			cids[i] = cid
		}
		s.recipe.Append(c.fp, uint32(len(c.data)), int32(cids[i]))
		// Duplicate, or copied into the open container by Add: either
		// way the pooled buffer is done.
		e.pool.Release(c.data)
	}
	e.cfg.Index.Commit(refs, cids)
	e.cfg.Rewriter.Committed(view, cids)
	return nil
}

// store appends a chunk payload to the open container, sealing and
// rotating it when full, and returns the container ID holding the chunk.
func (e *Engine) store(f fp.FP, data []byte) (container.ID, error) {
	if e.open != nil && !e.open.HasRoom(len(data)) {
		if err := e.sealOpen(); err != nil {
			return 0, err
		}
	}
	if e.open == nil {
		e.nextCID++
		e.open = container.NewWithCapacity(e.nextCID, e.cfg.ContainerCapacity)
	}
	if err := e.open.Add(f, data); err != nil {
		if errors.Is(err, container.ErrDuplicate) {
			// A rewritten duplicate may collide with a copy already in the
			// open container; referencing that copy is equivalent.
			return e.open.ID(), nil
		}
		return 0, err
	}
	return e.open.ID(), nil
}

func (e *Engine) sealOpen() error {
	if e.open == nil {
		return nil
	}
	if e.open.Len() > 0 {
		// A sealed image is read-only from here on; this engine never
		// mutates one during a backup.
		if err := e.writer.Put(e.open); err != nil {
			return err
		}
	}
	e.open = nil
	return nil
}

// Restore implements backup.Engine.
func (e *Engine) Restore(ctx context.Context, version int, w io.Writer) (rep backup.RestoreReport, retErr error) {
	start := time.Now()
	span := e.tracer.Start("restore", nil)
	// Deferred so a recipe read or cache restore failure still closes
	// the span; failures carry an error attr.
	defer func() {
		if retErr != nil {
			span.SetAttr("error", 1)
		}
		span.End()
	}()
	rec, err := e.cfg.Recipes.Get(version)
	if err != nil {
		return backup.RestoreReport{}, err
	}
	if e.rmx != nil {
		e.rmx.RecipeReadNS.Observe(uint64(time.Since(start)))
	}
	// Observed above the prefetch layer, mirroring countingFetcher's
	// position, so the trace/registry/Stats read counts agree.
	fetch, done := restorecache.MaybePrefetchParallel(
		restorecache.StoreFetcher(e.cfg.Store), rec.Entries, e.cfg.PrefetchDepth, e.cfg.RestoreWorkers, e.rmx)
	defer done()
	fetch = restorecache.ObserveFetcher(fetch, e.rmx, e.tracer, span)
	out := w
	if e.cfg.RestoreWorkers > 1 {
		out = restorecache.NewParallelWriter(w, restorecache.ParallelOptions{
			Workers: e.cfg.RestoreWorkers,
			Metrics: e.rmx,
			Tracer:  e.tracer,
			Span:    span,
		})
	}
	stats, err := e.cfg.RestoreCache.Restore(ctx, rec.Entries, fetch, out)
	if err != nil {
		return backup.RestoreReport{}, err
	}
	if e.rmx != nil {
		e.rmx.Restores.Inc()
		e.rmx.BytesRestored.Add(stats.BytesRestored)
		e.rmx.CacheHits.Add(stats.CacheHits)
		e.rmx.Chunks.Add(stats.Chunks)
	}
	span.SetAttr("version", int64(version))
	span.SetAttr("bytes", int64(stats.BytesRestored))
	span.SetAttr("container_reads", int64(stats.ContainerReads))
	return backup.RestoreReport{
		Version:  version,
		Stats:    stats,
		Duration: time.Since(start),
	}, nil
}

// Delete implements backup.Engine: the traditional mark-and-sweep path
// the paper contrasts with HiDeStore's free deletion (§5.5). Every
// remaining recipe is scanned to build the live set, then every container
// is swept: dead chunks are dropped, emptied containers deleted, partially
// dead containers compacted and rewritten.
func (e *Engine) Delete(version int) (backup.DeleteReport, error) {
	start := time.Now()
	report := backup.DeleteReport{Version: version}
	present, err := e.cfg.Recipes.Has(version)
	if err != nil {
		return report, err
	}
	if !present {
		return report, fmt.Errorf("%w: version %d", recipe.ErrNotFound, version)
	}
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
		//hidelint:ignore accounting garbage-collection sweep, not a restore; reads here are deletion cost, not restore cost
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
			// Compact the survivors into a rewritten container image.
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
	return s
}

func diffIndexStats(before, after index.Stats) index.Stats {
	return index.Stats{
		Lookups:        after.Lookups - before.Lookups,
		DiskLookups:    after.DiskLookups - before.DiskLookups,
		CacheHits:      after.CacheHits - before.CacheHits,
		Duplicates:     after.Duplicates - before.Duplicates,
		Uniques:        after.Uniques - before.Uniques,
		DuplicateBytes: after.DuplicateBytes - before.DuplicateBytes,
		UniqueBytes:    after.UniqueBytes - before.UniqueBytes,
	}
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
