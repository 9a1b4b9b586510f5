package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"hidestore/internal/backend"
	"hidestore/internal/backup"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/fp"
	"hidestore/internal/layout"
	"hidestore/internal/obs"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
)

// Config assembles a HiDeStore engine. Store and Recipes are required.
type Config struct {
	// Chunking algorithm and bounds. Defaults to TTTD with the paper's
	// 2/4/16 KB parameters (§5.1).
	Chunker     chunker.Algorithm
	ChunkParams chunker.Params
	// Store persists containers, both active and archival (required).
	Store container.Store
	// Recipes persists recipes (required).
	Recipes recipe.Store
	// ContainerCapacity in bytes (default container.DefaultCapacity).
	ContainerCapacity int
	// Window is the fingerprint-cache window in versions: 1 deduplicates
	// against the previous version (the default), 2 against the previous
	// two (the macos case, §4.1).
	Window int
	// MergeUtilization is the active-container utilization below which
	// containers are merged after each version (§4.2). Default 0.5.
	MergeUtilization float64
	// RestoreCache drives restores after CID resolution (default FAA).
	RestoreCache restorecache.Cache
	// PrefetchDepth bounds the restore read-ahead window in distinct
	// containers: 0 selects restorecache.DefaultPrefetchDepth, negative
	// disables prefetching. Prefetch only reorders when reads happen,
	// never which reads happen, so restore stats are unaffected.
	PrefetchDepth int
	// HashWorkers parallelize fingerprinting (default 4).
	HashWorkers int
	// AsyncCommitDepth is the width of the backup's commit plane: how many
	// container images (sealed actives, archival, merged) may be in flight
	// to the store while the engine goes on chunking or packing the next
	// one. Fences before the recipe write and before the state write
	// preserve the containers → recipe → state durability order, and the
	// same width bounds the post-commit container deletes. 0 selects
	// container.DefaultCommitDepth; negative commits each image before
	// the seal returns.
	AsyncCommitDepth int
	// State, when set, persists the engine's resumable state (the
	// fingerprint cache, active-container locations and deletion batches)
	// as the blob state.hds after every Backup and Delete, and restores it
	// at New — so a process restart continues the version history where it
	// stopped. Nil keeps the state in memory only.
	State backend.Backend
	// Metrics, when set, mirrors the engine's counters and per-stage
	// latencies into the registry. Nil (the default) disables the
	// observability plane at the cost of one nil check per site.
	Metrics *obs.Registry
	// Tracer, when set, records per-operation spans (backup, restore,
	// container.fetch, recovery events) as JSONL. Nil disables tracing.
	Tracer *obs.Tracer
}

func (c *Config) setDefaults() error {
	if c.Store == nil {
		return errors.New("core: Config.Store is required")
	}
	if c.Recipes == nil {
		return errors.New("core: Config.Recipes is required")
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
	if c.ContainerCapacity <= 0 {
		c.ContainerCapacity = container.DefaultCapacity
	}
	if c.Window <= 0 {
		c.Window = 1
	}
	if c.MergeUtilization <= 0 || c.MergeUtilization > 1 {
		c.MergeUtilization = 0.5
	}
	if c.RestoreCache == nil {
		c.RestoreCache = restorecache.NewFAA(0)
	}
	if c.HashWorkers <= 0 {
		c.HashWorkers = 4
	}
	return nil
}

// cutWith is a chunker and its parameters.
type cutWith struct {
	alg chunker.Algorithm
	p   chunker.Params
}

// archivalBatch records the archival containers created when one
// version's exclusive chunks went cold — the unit of §4.5 deletion.
type archivalBatch struct {
	containers []container.ID
	bytes      uint64
}

// Engine is the HiDeStore backup engine. Not safe for concurrent use.
type Engine struct {
	cfg Config

	version int
	nextCID container.ID

	// cache is the double-hash fingerprint cache (T1 ∪ T2 content).
	cache *IndexView
	// activeByFP locates each hot chunk's active container.
	activeByFP map[fp.FP]container.ID
	// activeContainers holds the mutable active container images.
	activeContainers map[container.ID]*container.Container

	// batches[v] are the archival containers holding chunks whose last
	// appearance was version v.
	batches map[int]*archivalBatch
	// cutWith is what the newest version's recipe was cut with; zero when
	// unknown (no version yet, or a state file from before it was
	// recorded). It persists in the state file, so a reopened engine's
	// first Backup can seed the ingest's successor table from that recipe
	// (see seedIngest); seeded says the engine has tried.
	cutWith cutWith
	seeded  bool

	// flat holds the versions whose stored recipes resolve has been over
	// since the last backup (see isFlat). Memory only: a reopened engine
	// reads one chain to its end and knows again.
	flat map[int]struct{}

	// pendingDeletes are active images the current operation retired
	// (merged sparse sources, images whose every chunk went cold). They
	// are removed only after saveState commits: until then the previous
	// state still references them, and deleting them earlier would make
	// a crash unrecoverable. A crash before the flush leaves them as
	// orphans for the startup sweep.
	pendingDeletes []container.ID

	logicalBytes uint64
	storedBytes  uint64
	// written counts the payload bytes of every container image the
	// running Backup has put (sealed actives, archival, merged).
	written uint64

	// ingest is the write path shared with the baseline engine: the
	// chunk → fingerprint → in-order sink pipeline, the commit plane's
	// lifecycle and the failure latch. restore is the shared read path.
	ingest  *backup.Ingester
	restore backup.RestoreDriver
	// writer is the commit plane every container image of the running
	// Backup is written through; nil between backups.
	writer *container.AsyncWriter
	// actives is the store's uncached view, which active images are
	// written and reloaded through: restores read them from
	// activeContainers, so a cached copy would only take the cache's
	// budget from archival images.
	actives container.Store

	// Observability bundles; all nil when Config.Metrics is nil, in
	// which case every instrumentation site reduces to one nil check.
	mx     *obs.BackupMetrics
	rcv    *obs.RecoveryMetrics
	smx    *obs.ScrubMetrics
	tracer *obs.Tracer

	// Online-scrubber cursor state (see scrub.go): the container list
	// snapshot being walked, the next position in it, and the damage
	// found so far (bounded; overflow counted separately). Mutated only
	// by ScrubStep, which callers serialize with the engine's other
	// operations.
	scrubQueue    []container.ID
	scrubPos      int
	scrubDamage   []string
	scrubOverflow int
}

var _ backup.Engine = (*Engine)(nil)

// New creates a HiDeStore engine.
func New(cfg Config) (*Engine, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:              cfg,
		cache:            NewIndexView(cfg.Window),
		activeByFP:       make(map[fp.FP]container.ID),
		activeContainers: make(map[container.ID]*container.Container),
		actives:          backend.UncachedContainers(cfg.Store),
		batches:          make(map[int]*archivalBatch),
		flat:             make(map[int]struct{}),
		mx:               obs.NewBackupMetrics(cfg.Metrics),
		rcv:              obs.NewRecoveryMetrics(cfg.Metrics),
		smx:              obs.NewScrubMetrics(cfg.Metrics),
		tracer:           cfg.Tracer,
	}
	e.ingest = backup.NewIngester(backup.IngestConfig{
		Chunker:     cfg.Chunker,
		ChunkParams: cfg.ChunkParams,
		HashWorkers: cfg.HashWorkers,
		CommitDepth: cfg.AsyncCommitDepth,
		Metrics:     e.mx,
		Tracer:      cfg.Tracer,
	})
	e.restore = backup.RestoreDriver{
		Recipes:           cfg.Recipes,
		Store:             cfg.Store,
		ContainerCapacity: cfg.ContainerCapacity,
		Cache:             cfg.RestoreCache,
		PrefetchDepth:     cfg.PrefetchDepth,
		Metrics:           obs.NewRestoreMetrics(cfg.Metrics),
		Tracer:            cfg.Tracer,
		Resident:          e.resident,
	}
	//hidelint:ignore ignored-ctx startup-time crash-recovery I/O (state load, recovery, anchor) runs before any request context exists; nothing upstream could cancel it
	ctx := context.Background()
	loaded, err := e.loadState(ctx)
	if err != nil {
		return nil, err
	}
	if e.cfg.State != nil {
		if loaded {
			if err := e.recoverStartup(ctx); err != nil {
				return nil, err
			}
		} else if err := e.saveState(ctx); err != nil {
			// Anchor a fresh directory immediately: with a state file
			// present from the start, "recipes exist but state missing"
			// is unambiguously a lost state file (refused by loadState),
			// while a crash during the very first backup stays
			// recoverable — the anchor rolls it back.
			return nil, err
		}
	}
	return e, nil
}

// Backup implements backup.Engine.
//
// The dedup phase is Figure 5's three cases: a chunk matching the cache is
// a duplicate (T1 hits move to T2); everything else is unique and goes to
// the active containers. The recipe records CID 0 for every chunk — their
// physical locations live in the fingerprint cache until the chunks either
// go cold (archival CID patched into the recipe) or stay hot (forward
// pointer patched in).
//
// Durable commit order — containers, then recipes, then state:
//
//  1. container writes (sealed actives, archival migrations, merged
//     actives) — every byte any metadata will point at, each image under
//     a fresh CID and written exactly once, all through one commit plane
//     (container.AsyncWriter) that keeps several in flight, in no
//     particular order among themselves;
//  2. recipe writes — the new version after a fence behind the sealed
//     actives, the departing version's patch after a second fence behind
//     the archival and merged images;
//  3. the state file — the commit point;
//  4. only after the state commits, deletion of retired active images
//     (flushPendingDeletes).
//
// Metadata never runs ahead of the container log, and no stored image is
// ever modified in place: at any crash point, everything the previous
// state references is still on disk unchanged, so reopening rolls forward
// or back to a consistent history (see recoverStartup).
func (e *Engine) Backup(ctx context.Context, version io.Reader) (rep backup.BackupReport, retErr error) {
	in, err := e.ingest.Begin(ctx)
	if err != nil {
		return backup.BackupReport{}, err
	}
	defer in.End(&retErr)
	e.writer = in.Writer
	defer func() { e.writer = nil }()
	v := e.version + 1
	clear(e.flat) // whatever goes cold now is a home no flat recipe names
	statsBefore := e.cache.Stats()
	e.written = 0
	rec := recipe.New(v)
	// Unique chunks go to active containers in stream order, each image
	// opened at full capacity: regrowing it by append on the serial sink
	// cost kernel-mem backup_mbps 13–33 % on the 2-CPU reference host
	// (ROADMAP, unknown (a)).
	active := &container.Packer{NextID: &e.nextCID, Capacity: e.cfg.ContainerCapacity, Remaining: math.MaxInt, Seal: e.sealActive}
	var stored uint64
	var unique int

	// obsOn gates the index's hot-path clock reads the way the shared
	// skeleton gates its own: one boolean test per chunk with the plane
	// off. Probes run on HashWorkers goroutines, hence the atomic.
	obsOn := e.mx != nil || e.tracer != nil
	var lookupNS atomic.Int64
	var mxLookup *obs.Histogram
	if e.mx != nil {
		mxLookup = e.mx.IndexLookupNS
	}
	// Speculative index probe on the hash workers: a sharded read that
	// overlaps the expensive map lookup with the other workers instead of
	// serializing it behind the sink. A hit means the fingerprint was
	// already active when the worker saw it, which stays true for the rest
	// of the version (entries are never removed mid-pipeline), so the sink
	// can trust it. A miss is only a hint — an identical chunk earlier in
	// the same version may commit between the probe and the sink — and is
	// re-probed in order, so classification and statistics are identical
	// to a sink-only lookup.
	probe := func(f fp.FP) bool {
		var t0 time.Time
		if obsOn {
			t0 = time.Now()
		}
		_, hit := e.cache.probe(f)
		if obsOn {
			lookupNS.Add(int64(time.Since(t0)))
		}
		return hit
	}
	// A predicted chunk is proven against its hot copy (§4.1–4.2): the
	// previous version's chunks are all in active images. The sink seals
	// new images into activeContainers while the hash workers read, so
	// they look in a snapshot taken now. No image in it changes before
	// migrateCold, which runs after Run; an image sealed during Run holds
	// only this version's new chunks, which no successor table names.
	resident := maps.Clone(e.activeContainers)
	hot := func(f fp.FP) []byte {
		cid, ok := e.cache.probe(f)
		if c := resident[cid]; ok && c != nil {
			if b, err := c.View(f); err == nil {
				return b
			}
		}
		return nil
	}
	sink := func(c backup.Chunk) error {
		size := uint32(len(c.Data))
		var t0 time.Time
		if obsOn {
			t0 = time.Now()
		}
		dup := c.ProbeHit
		if dup {
			e.cache.touch(c.FP, size)
		} else {
			_, dup = e.cache.lookupOne(c.FP, size)
		}
		if obsOn {
			d := time.Since(t0)
			lookupNS.Add(int64(d))
			mxLookup.Observe(uint64(d))
		}
		if !dup {
			cid, err := active.Add(c.FP, c.Data)
			if err != nil {
				return err
			}
			e.cache.commitOne(c.FP, cid)
			e.activeByFP[c.FP] = cid
			stored += uint64(size)
			unique++
		}
		// The payload is either a duplicate or copied into the open
		// container by Add; either way the slab view is done.
		c.Release()
		rec.Append(c.FP, size, 0)
		return nil
	}
	if !e.seeded {
		e.seeded = true
		e.seedIngest()
	}
	if err := in.Run(ctx, version, probe, hot, sink); err != nil {
		return backup.BackupReport{}, err
	}
	if err := active.Flush(); err != nil {
		return backup.BackupReport{}, err
	}
	// First fence: every sealed container must be durable before the
	// recipe can name its chunks (commit-order step 1 → 2). It is also
	// what lets migrateCold tombstone chunks in sealed in-memory images —
	// nothing in flight is reading them any more.
	if err := e.writer.Barrier(); err != nil {
		return backup.BackupReport{}, err
	}
	commitStart := time.Now()
	if err := e.cfg.Recipes.Put(rec); err != nil {
		return backup.BackupReport{}, err
	}
	if e.mx != nil {
		e.mx.RecipeCommitNS.Observe(uint64(time.Since(commitStart)))
	}

	// Post-version maintenance: classify cold chunks, migrate them to
	// archival containers, merge sparse active containers, and patch the
	// recipe leaving the window (§4.2, §4.3).
	migrateStart := time.Now()
	evicted := e.cache.endVersion(true) // the cold set leaves the cache
	e.version = v
	e.cutWith = cutWith{e.cfg.Chunker, e.cfg.ChunkParams}
	coldLocs, migrated, err := e.migrateCold(v, evicted)
	if err != nil {
		return backup.BackupReport{}, err
	}
	if e.mx != nil {
		e.mx.MigrateNS.Observe(uint64(time.Since(migrateStart)))
	}
	mergeStart := time.Now()
	merged, err := e.mergeSparseActives()
	if err != nil {
		return backup.BackupReport{}, err
	}
	if e.mx != nil {
		e.mx.MergeNS.Observe(uint64(time.Since(mergeStart)))
	}
	// Second fence: the archival and merged images must be durable before
	// the departing recipe and the state point into them.
	if err := e.writer.Barrier(); err != nil {
		return backup.BackupReport{}, err
	}
	migrateDur := time.Since(migrateStart)

	recipeStart := time.Now()
	if err := e.patchDepartingRecipe(v, coldLocs); err != nil {
		return backup.BackupReport{}, err
	}
	recipeDur := time.Since(recipeStart)

	e.logicalBytes += in.LogicalBytes
	e.storedBytes += stored
	stateStart := time.Now()
	if err := e.saveState(ctx); err != nil {
		return backup.BackupReport{}, err
	}
	if e.mx != nil {
		e.mx.StateCommitNS.Observe(uint64(time.Since(stateStart)))
	}
	if err := e.flushPendingDeletes(); err != nil {
		return backup.BackupReport{}, err
	}
	// Nothing is handed to the plane past the second fence, so the report
	// sees the whole CommitWait.
	rep = in.Report(v, stored, unique, e.written)
	if e.mx != nil {
		e.mx.MigratedBytes.Add(migrated)
		e.mx.MergedBytes.Add(merged)
	}
	if e.tracer != nil {
		e.tracer.EmitStage("stage.index_lookup", in.Span, in.Start, time.Duration(lookupNS.Load()),
			map[string]int64{"chunks": int64(in.Chunks)})
	}
	rep.IndexStats = e.cache.Stats().Sub(statsBefore)
	rep.MigratedBytes = migrated
	rep.MergedBytes = merged
	rep.MaintenanceDuration = migrateDur + recipeDur
	rep.MigrateDuration = migrateDur
	rep.RecipeUpdateDuration = recipeDur
	return rep, nil
}

// seedIngest lets a reopened engine's first backup confirm cuts from the
// newest recipe instead of scanning every byte. The ingest's successor
// table lives in memory, so after a reopen it is rebuilt from that
// recipe's chunk list — only when the recipe was cut with this engine's
// chunker and parameters, which the state file records; the ingest
// checks that before it loads anything. An unreadable recipe only costs
// the speed-up: the backup scans.
func (e *Engine) seedIngest() {
	v := e.version
	if v == 0 {
		return
	}
	e.ingest.Seed(e.cutWith.alg, e.cutWith.p, func() ([]recipe.Entry, error) {
		rec, err := e.cfg.Recipes.Get(v)
		if err != nil {
			return nil, err
		}
		return rec.Entries, nil
	})
}

// sealActive registers a filled active image and hands it to the commit
// plane. From here until the first fence the image is read-only: the
// engine does not touch sealed actives during the hot loop, and the
// maintenance paths that tombstone them run after the fence.
func (e *Engine) sealActive(c *container.Container) error {
	e.activeContainers[c.ID()] = c
	return e.put(e.actives, c)
}

// put hands one finished container image to the commit plane, to be
// written to store, counting its payload toward the running backup's
// ContainerBytesWritten. The image is durable once the next fence
// returns.
func (e *Engine) put(store container.Store, c *container.Container) error {
	e.written += uint64(c.LiveSize())
	return e.writer.Put(store, c)
}

// migrateCold copies every chunk the fingerprint cache just evicted into
// fresh archival containers, in the active containers' physical order, and
// tombstones it in the in-memory active container only. Sealed active
// images are write-once: the stored image keeps the stale bytes and is
// never rewritten or renumbered, because the state file already commits
// liveness — a chunk in an active image is live iff activeByFP names that
// image (unmarshalState drops the rest on reload). mergeSparseActives
// reclaims the stale bytes once an image's live share falls under
// MergeUtilization; an image left with no live chunk is deleted after the
// state commits. It returns the cold chunks' archival locations and the
// batch's payload bytes, and registers the batch for §4.5 deletion. The
// cold set after version v is exactly the chunks last seen in version
// v−Window.
func (e *Engine) migrateCold(v int, evicted []evictedChunk) (map[fp.FP]container.ID, uint64, error) {
	cold := make(map[fp.FP]container.ID, len(evicted)) // fp → archival location
	if len(evicted) == 0 {
		return cold, 0, nil
	}
	// Stable order: by source container, then by offset within it, so
	// archival containers inherit the old versions' physical order (and
	// the mutating-op sequence stays deterministic for fault injection).
	type coldChunk struct {
		f      fp.FP
		src    *container.Container
		offset uint32
	}
	victims := make([]coldChunk, len(evicted))
	unpacked := 0 // cold payload bytes not yet in an archival container
	for i, ev := range evicted {
		src, ok := e.activeContainers[ev.cid]
		if !ok {
			return nil, 0, fmt.Errorf("core: cold chunk %s references unknown active container %d", ev.f.Short(), ev.cid)
		}
		entry, ok := src.Entry(ev.f)
		if !ok {
			return nil, 0, fmt.Errorf("core: cold chunk %s absent from active container %d", ev.f.Short(), ev.cid)
		}
		victims[i] = coldChunk{f: ev.f, src: src, offset: entry.Offset}
		unpacked += int(entry.Size)
	}
	sort.Slice(victims, func(i, j int) bool {
		if a, b := victims[i].src.ID(), victims[j].src.ID(); a != b {
			return a < b
		}
		return victims[i].offset < victims[j].offset
	})
	batch := &archivalBatch{}
	archival := &container.Packer{NextID: &e.nextCID, Capacity: e.cfg.ContainerCapacity, Remaining: unpacked}
	archival.Seal = func(c *container.Container) error {
		if err := e.put(e.cfg.Store, c); err != nil {
			return err
		}
		if e.mx != nil {
			e.mx.ArchivalContainers.Inc()
			e.mx.MigratedChunks.Add(uint64(c.Len()))
		}
		batch.containers = append(batch.containers, c.ID())
		batch.bytes += uint64(c.LiveSize())
		return nil
	}
	for _, vc := range victims {
		data, err := vc.src.View(vc.f) // copied once, by Add
		if err != nil {
			return nil, 0, fmt.Errorf("core: migrate %s: %w", vc.f.Short(), err)
		}
		if cold[vc.f], err = archival.Add(vc.f, data); err != nil {
			return nil, 0, err
		}
		if err := vc.src.Remove(vc.f); err != nil {
			return nil, 0, err
		}
		if vc.src.Len() == 0 {
			// Every chunk is stale: the new state will not list the image,
			// so it can go once that state commits.
			delete(e.activeContainers, vc.src.ID())
			e.pendingDeletes = append(e.pendingDeletes, vc.src.ID())
		}
		delete(e.activeByFP, vc.f)
	}
	if err := archival.Flush(); err != nil {
		return nil, 0, err
	}
	e.batches[v-e.cfg.Window] = batch
	return cold, batch.bytes, nil
}

// mergeSparseActives compacts active containers whose utilization fell
// below the merge threshold, packing their live chunks into fresh
// containers (§4.2, Figure 6) and updating the fingerprint cache's
// locations. Recipes are unaffected: active chunks are recorded as CID 0
// and resolve through the cache. This is the only place an active image's
// stale bytes are physically reclaimed, which bounds them: every image the
// merge leaves alone is at least MergeUtilization live, bar one. It
// returns the payload bytes repacked.
func (e *Engine) mergeSparseActives() (uint64, error) {
	var sparse []*container.Container
	for _, c := range e.activeContainers {
		if c.Utilization() < e.cfg.MergeUtilization {
			sparse = append(sparse, c)
		}
	}
	if len(sparse) < 2 {
		return 0, nil
	}
	sort.Slice(sparse, func(i, j int) bool { return sparse[i].ID() < sparse[j].ID() })
	unpacked := 0 // live payload bytes not yet in a merged container
	for _, c := range sparse {
		unpacked += c.LiveSize()
	}
	var repacked uint64
	merged := &container.Packer{NextID: &e.nextCID, Capacity: e.cfg.ContainerCapacity, Remaining: unpacked}
	merged.Seal = func(c *container.Container) error {
		repacked += uint64(c.LiveSize())
		return e.sealActive(c)
	}
	for _, src := range sparse {
		for _, f := range src.Fingerprints() {
			data, err := src.View(f) // copied once, by Add
			if err != nil {
				return 0, err
			}
			cid, err := merged.Add(f, data)
			if err != nil {
				return 0, err
			}
			e.activeByFP[f] = cid
			e.cache.setCID(f, cid)
		}
		delete(e.activeContainers, src.ID())
		// Deferred: the source image may be referenced by the previous
		// committed state; it is deleted only after the next state save.
		e.pendingDeletes = append(e.pendingDeletes, src.ID())
	}
	err := merged.Flush()
	return repacked, err
}

// flushPendingDeletes removes the active images the operation retired.
// Called only after saveState commits — the new state no longer
// references them, so a crash mid-flush merely leaves orphans for the
// startup sweep.
func (e *Engine) flushPendingDeletes() error {
	var err error
	e.pendingDeletes, err = container.DeleteAll(e.cfg.Store, e.pendingDeletes, container.CommitWidth(e.cfg.AsyncCommitDepth))
	return err
}

// patchDepartingRecipe rewrites the recipe of the version that leaves the
// cache window when version v is backed up (§4.3, Figure 7): cold chunks
// get their archival container ID; still-hot chunks get a forward pointer
// to the most recent version containing them. Only this one recipe is
// touched per backup — the bounded update cost Figure 12 measures. A
// version with no stored recipe has nothing to patch.
func (e *Engine) patchDepartingRecipe(v int, coldLocs map[fp.FP]container.ID) error {
	departing := v - e.cfg.Window
	if departing < 1 {
		return nil
	}
	rec, err := e.cfg.Recipes.Get(departing)
	if errors.Is(err, recipe.ErrNotFound) {
		return nil
	}
	if err != nil {
		return err
	}
	changed := false
	for i := range rec.Entries {
		entry := &rec.Entries[i]
		if entry.CID != 0 {
			continue
		}
		if cid, ok := coldLocs[entry.FP]; ok {
			entry.CID = int32(cid)
			changed = true
			continue
		}
		if seen, ok := e.cache.lastSeenOf(entry.FP); ok {
			entry.CID = -int32(seen)
			changed = true
			continue
		}
		return fmt.Errorf("core: recipe v%d chunk %s neither cold nor hot", departing, entry.FP.Short())
	}
	if !changed {
		return nil
	}
	return e.cfg.Recipes.Put(rec)
}

// Restore implements backup.Engine (§4.4). CID-0 and forward-pointing
// entries that end at hot chunks resolve through the fingerprint cache
// into active containers; a forward pointer whose chunk has gone cold is
// followed into newer recipes to its archival home (resolve, recipes.go;
// timed separately as RecipeUpdateDuration).
func (e *Engine) Restore(ctx context.Context, version int, w io.Writer) (backup.RestoreReport, error) {
	return e.restoreWith(ctx, version, w, false)
}

// VerifyRestore restores a version into w while recomputing every fetched
// chunk's fingerprint (a scrub-on-read). It costs one hash per stored
// chunk of every container touched, on top of the normal restore.
func (e *Engine) VerifyRestore(ctx context.Context, version int, w io.Writer) (backup.RestoreReport, error) {
	return e.restoreWith(ctx, version, w, true)
}

// resident is the restore driver's Resident hook: the active image the
// engine holds for id, nil for an archival ID. Once an operation has
// returned, an image holds exactly the chunks activeByFP resolves to it,
// and every chunk it holds has its fingerprint's bytes: the image was
// written by this engine or CRC-checked when loadState reloaded it.
// Restores are serialised with Backup, Delete and scrub steps, so no
// image changes under one.
func (e *Engine) resident(id container.ID) *container.Container {
	return e.activeContainers[id]
}

// restoreWith runs the shared driver's restore, verifying or not. The
// engine's part is resolving the recipe, and remembering that a recipe
// whose pointers it followed is flat once the driver has stored it. A
// verifying restore reads newer recipes through the store's uncached view.
func (e *Engine) restoreWith(ctx context.Context, version int, w io.Writer, verify bool) (backup.RestoreReport, error) {
	read := e.cfg.Recipes.Get
	if verify {
		read = backend.UncachedRecipes(e.cfg.Recipes).Get
	}
	followed := false
	rep, err := e.restore.Restore(ctx, version, w, verify, func(ctx context.Context, rec *recipe.Recipe) (backup.Resolution, error) {
		res, err := e.resolve(ctx, rec, false, read)
		followed = res.Wanted > 0
		return res, err
	})
	if followed && err == nil {
		e.flat[version] = struct{}{}
	}
	return rep, err
}

// AnalyzeLayout implements backup.LayoutAnalyzer: version's
// physical-locality profile (CFL, utilization, per-policy simulated
// restore cost) from the reference stream Restore would replay, over the
// images it would read — resident active images, stored archival ones —
// so its container-read counts match a real restore's exactly. Nothing is
// restored or changed: the pointers it follows are neither written back
// nor marked flat.
func (e *Engine) AnalyzeLayout(ctx context.Context, version int, policies []string) (*layout.Report, error) {
	return e.restore.AnalyzeLayout(ctx, version, policies, func(ctx context.Context, rec *recipe.Recipe) (backup.Resolution, error) {
		return e.resolve(ctx, rec, false, e.cfg.Recipes.Get)
	})
}

// Delete implements backup.Engine (§4.5). Expired versions must be
// deleted oldest-first; the chunks exclusive to the expired version are
// exactly the archival batch recorded when they went cold, so deletion is
// dropping those containers plus the recipe — no reference counting, no
// chunk detection, no garbage collection.
//
// Durable commit order — the reverse of Backup's: recipe, then state,
// then containers. A crash after the recipe removal leaves unreferenced
// containers (wasted space the startup recovery reclaims); deleting
// containers first would leave a recipe pointing at missing chunks —
// data loss for a version still listed as restorable.
func (e *Engine) Delete(version int) (report backup.DeleteReport, retErr error) {
	start := time.Now()
	report = backup.DeleteReport{Version: version}
	if err := e.ingest.Failed(); err != nil {
		return report, err
	}
	versions, err := e.cfg.Recipes.Versions()
	if err != nil {
		return report, err
	}
	if len(versions) == 0 || versions[0] != version {
		return report, fmt.Errorf("core: delete v%d: only the oldest version (%v) can expire", version, versions)
	}
	if version > e.version-e.cfg.Window {
		return report, fmt.Errorf("core: delete v%d: version still inside the cache window", version)
	}
	// Past the preconditions a failure can leave the batches and byte
	// counts in memory ahead of the state file: latch, as Backup does.
	defer e.ingest.FailOn(&retErr)
	batch := e.batches[version]
	if err := e.cfg.Recipes.Delete(version); err != nil {
		return report, err
	}
	if batch != nil {
		report.BytesReclaimed = batch.bytes
		e.storedBytes -= batch.bytes
		delete(e.batches, version)
	}
	//hidelint:ignore ignored-ctx Delete keeps backup.Engine's context-free signature; the state write is its commit point
	if err := e.saveState(context.Background()); err != nil {
		return report, err
	}
	if batch != nil {
		// The state no longer lists the batch, so order is free.
		left, err := container.DeleteAll(e.cfg.Store, batch.containers, container.CommitWidth(e.cfg.AsyncCommitDepth))
		report.ContainersDeleted = len(batch.containers) - len(left)
		if err != nil {
			return report, err
		}
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
	return vs
}

// Stats implements backup.Engine. Fields that cannot be computed are
// left zero and named in Degraded.
func (e *Engine) Stats() backup.Stats {
	s := backup.Stats{
		LogicalBytes:  e.logicalBytes,
		StoredBytes:   e.storedBytes,
		IndexStats:    e.cache.Stats(),
		IndexMemBytes: e.cache.MemoryBytes(),
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
	s.Degraded = append(s.Degraded, e.scrubDamage...)
	if e.scrubOverflow > 0 {
		s.Degraded = append(s.Degraded, fmt.Sprintf("scrub: %d more corrupt containers (list truncated)", e.scrubOverflow))
	}
	return s
}

// TransientCacheBytes reports the current fingerprint-cache footprint.
func (e *Engine) TransientCacheBytes() int64 { return e.cache.TransientBytes() }
