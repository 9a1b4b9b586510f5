package obs

// This file is the instrument catalog: every metric the backup and
// restore pipelines export, grouped into the bundles the engines hold.
// Names follow Prometheus conventions (unit-suffixed, _total for
// counters); the catalog is documented in DESIGN.md "Observability".
//
// Bundles are nil when the registry is nil: engines guard hot-path
// clock reads with one `!= nil` check and skip instrumentation
// entirely when the plane is off.

// BackupMetrics instruments the backup pipeline.
type BackupMetrics struct {
	Versions     *Counter
	LogicalBytes *Counter
	StoredBytes  *Counter
	Chunks       *Counter
	UniqueChunks *Counter

	// Per-item stage latencies (nanoseconds).
	// ChunkingNS is one chunk's cut decision: a chunker.Decider.Cut scan,
	// or, for a cut confirmed from the previous backup's successor table,
	// the lookup and Decider.Confirms — no scan. A confirmed guess whose
	// fingerprint differed records both.
	ChunkingNS       *Histogram
	FingerprintNS    *Histogram // one chunk's fp.Of calls
	IndexLookupNS    *Histogram // one cache/index classification
	ContainerWriteNS *Histogram // one Store.Put of a sealed container
	RecipeCommitNS   *Histogram // one Recipes.Put
	StateCommitNS    *Histogram // one state-file commit

	// Per-version maintenance (nanoseconds per version).
	MigrateNS *Histogram
	MergeNS   *Histogram

	// Chunk-filter migration volume.
	MigratedChunks     *Counter
	ArchivalContainers *Counter

	// Container write volume (payload bytes): everything put, and the
	// shares that were cold-chunk migration and sparse-container merge.
	// Written over logical is the backup's write amplification.
	ContainerBytesWritten *Counter
	MigratedBytes         *Counter
	MergedBytes           *Counter
	// CommitWaitNS is the time backup goroutines spent blocked on the
	// container commit plane (full slots plus the two fences).
	CommitWaitNS *Counter
	// ScannedBytes is the length of the chunks the ingest scanned for
	// their cut; over LogicalBytes, the scan share.
	ScannedBytes *Counter
	// HashedBytes is what SHA-1 read; over LogicalBytes, the hash share.
	HashedBytes *Counter

	// Stream-slab pool state (the ingest's slabs, internal/backup), set
	// after each backup under the names the chunk-buffer pool had. InUse
	// should be 0 between backups — anything else is a chunk the engine
	// never released.
	PoolInUse      *Gauge
	PoolInUseBytes *Gauge
	PoolSlabs      *Gauge
}

// NewBackupMetrics registers the backup instruments; nil registry
// yields a nil bundle (instrumentation off).
func NewBackupMetrics(r *Registry) *BackupMetrics {
	if r == nil {
		return nil
	}
	return &BackupMetrics{
		Versions:     r.Counter("hidestore_backup_versions_total", "backup versions committed"),
		LogicalBytes: r.Counter("hidestore_backup_logical_bytes_total", "logical stream bytes backed up"),
		StoredBytes:  r.Counter("hidestore_backup_stored_bytes_total", "unique payload bytes written"),
		Chunks:       r.Counter("hidestore_backup_chunks_total", "chunks classified"),
		UniqueChunks: r.Counter("hidestore_backup_unique_chunks_total", "chunks stored as unique"),

		ChunkingNS:       r.Histogram("hidestore_stage_chunking_ns", "per-chunk cut decision latency: a Decider.Cut scan, or the Decider.Confirms check of a cut confirmed from the previous backup (ns)"),
		FingerprintNS:    r.Histogram("hidestore_stage_fingerprint_ns", "per-chunk fingerprint latency (ns)"),
		IndexLookupNS:    r.Histogram("hidestore_stage_index_lookup_ns", "per-chunk index/cache lookup latency (ns)"),
		ContainerWriteNS: r.Histogram("hidestore_stage_container_write_ns", "per-container store write latency (ns)"),
		RecipeCommitNS:   r.Histogram("hidestore_stage_recipe_commit_ns", "per-recipe commit latency (ns)"),
		StateCommitNS:    r.Histogram("hidestore_stage_state_commit_ns", "per-state-file commit latency (ns)"),

		MigrateNS: r.Histogram("hidestore_stage_migrate_ns", "per-version cold-chunk migration latency (ns)"),
		MergeNS:   r.Histogram("hidestore_stage_merge_ns", "per-version sparse-container merge latency (ns)"),

		MigratedChunks:     r.Counter("hidestore_migrated_chunks_total", "chunks exiled to archival containers"),
		ArchivalContainers: r.Counter("hidestore_archival_containers_total", "archival containers created"),

		ContainerBytesWritten: r.Counter("hidestore_backup_container_bytes_written_total", "container payload bytes written by backups (unique + migrated + merged)"),
		MigratedBytes:         r.Counter("hidestore_backup_migrated_bytes_total", "payload bytes copied into archival containers"),
		MergedBytes:           r.Counter("hidestore_backup_merged_bytes_total", "payload bytes repacked by sparse-container merges"),
		CommitWaitNS:          r.Counter("hidestore_backup_commit_wait_ns_total", "time the backup goroutine spent blocked on the container commit plane (ns)"),
		ScannedBytes:          r.Counter("hidestore_backup_scanned_bytes_total", "bytes of the chunks the ingest scanned for their cut, speculative ones included"),
		HashedBytes:           r.Counter("hidestore_backup_hashed_bytes_total", "bytes the ingest fingerprinted with SHA-1, speculative chunks included"),

		PoolInUse:      r.Gauge("hidestore_bufpool_in_use", "ingest stream slabs currently out of the slab pool (in flight or held by the engine)"),
		PoolInUseBytes: r.Gauge("hidestore_bufpool_in_use_bytes", "bytes of the ingest stream slabs currently out of the slab pool"),
		PoolSlabs:      r.Gauge("hidestore_bufpool_slabs", "cumulative ingest stream slab allocations"),
	}
}

// RestoreMetrics instruments the restore pipeline.
type RestoreMetrics struct {
	Restores       *Counter
	BytesRestored  *Counter
	ContainerReads *Counter // identical by construction to restorecache.Stats.ContainerReads
	CacheHits      *Counter
	Chunks         *Counter
	RecipeReads    *Counter // identical by construction to Σ RestoreReport.RecipesRead
	ResidentReads  *Counter // identical by construction to Σ RestoreReport.ResidentReads

	RecipeReadNS     *Histogram // the restored version's own Recipes.Get
	FlattenNS        *Histogram // following one version's forward pointers into newer recipes
	ContainerFetchNS *Histogram // one policy-issued container acquire

	// Prefetch pipeline state.
	PrefetchOccupancy *Gauge   // containers currently in the read-ahead window
	PrefetchPlanned   *Counter // containers entered into read-ahead plans

	// Parallel-assembly pipeline state (restores on more than one CPU).
	AssemblyWorkersBusy *Gauge     // assembly workers currently filling a span
	AssemblySpans       *Counter   // spans dispatched to the assembly pool
	AssemblyStallNS     *Histogram // writer wait for the next in-order span (ns)
}

// NewRestoreMetrics registers the restore instruments; nil registry
// yields a nil bundle.
func NewRestoreMetrics(r *Registry) *RestoreMetrics {
	if r == nil {
		return nil
	}
	return &RestoreMetrics{
		Restores:       r.Counter("hidestore_restore_total", "restore runs completed"),
		BytesRestored:  r.Counter("hidestore_restore_bytes_total", "logical bytes restored"),
		ContainerReads: r.Counter("hidestore_restore_container_reads_total", "container reads issued by restore cache policies"),
		CacheHits:      r.Counter("hidestore_restore_cache_hits_total", "chunks served without a container read"),
		Chunks:         r.Counter("hidestore_restore_chunks_total", "chunk references restored"),
		RecipeReads:    r.Counter("hidestore_restore_recipe_reads_total", "recipe reads issued by restores (the version's own plus newer ones its forward pointers led to)"),
		ResidentReads:  r.Counter("hidestore_restore_resident_reads_total", "container reads served from memory (the engine's active images, or kept images an earlier restore read or the engine wrote) instead of the store"),

		RecipeReadNS:     r.Histogram("hidestore_stage_recipe_read_ns", "per-restore recipe read latency (ns)"),
		FlattenNS:        r.Histogram("hidestore_stage_flatten_ns", "per-restore latency of following forward pointers into newer recipes (ns)"),
		ContainerFetchNS: r.Histogram("hidestore_stage_container_fetch_ns", "per-read container acquire latency (ns)"),

		PrefetchOccupancy: r.Gauge("hidestore_prefetch_occupancy", "containers currently held in the read-ahead window"),
		PrefetchPlanned:   r.Counter("hidestore_prefetch_planned_total", "containers entered into read-ahead plans"),

		AssemblyWorkersBusy: r.Gauge("hidestore_restore_assembly_workers_busy", "assembly workers currently filling a span"),
		AssemblySpans:       r.Counter("hidestore_restore_assembly_spans_total", "spans dispatched to the parallel assembly pool"),
		AssemblyStallNS:     r.Histogram("hidestore_restore_assembly_stall_ns", "writer wait for the next in-order span (ns)"),
	}
}

// ScrubMetrics instruments the online scrubber (background container
// verification).
type ScrubMetrics struct {
	Passes      *Counter // full scrub passes completed
	Containers  *Counter // container images verified
	Chunks      *Counter // stored chunks content-verified
	Bytes       *Counter // payload bytes content-verified
	Corruptions *Counter // containers found corrupt (after the definitive re-read)
	Quarantined *Counter // corrupt containers moved to quarantine
}

// NewScrubMetrics registers the scrubber instruments; nil registry
// yields a nil bundle.
func NewScrubMetrics(r *Registry) *ScrubMetrics {
	if r == nil {
		return nil
	}
	return &ScrubMetrics{
		Passes:      r.Counter("hidestore_scrub_passes_total", "full scrub passes completed"),
		Containers:  r.Counter("hidestore_scrub_containers_total", "container images verified by the scrubber"),
		Chunks:      r.Counter("hidestore_scrub_chunks_total", "stored chunks content-verified by the scrubber"),
		Bytes:       r.Counter("hidestore_scrub_bytes_total", "payload bytes content-verified by the scrubber"),
		Corruptions: r.Counter("hidestore_scrub_corruptions_total", "containers found corrupt by the scrubber"),
		Quarantined: r.Counter("hidestore_scrub_quarantined_total", "corrupt containers quarantined by the scrubber"),
	}
}

// BackendMetrics instruments the storage-backend stack (remote
// simulator and retry layer).
type BackendMetrics struct {
	RemoteOps       *Counter // operations that reached the (simulated) remote
	RemoteBytes     *Counter // payload bytes moved to/from the remote
	TransientErrors *Counter // transient failures surfaced by the remote
	Retries         *Counter // re-attempts issued by the retry layer

	FetchNS *Histogram // one backend Get through the full stack (ns)
}

// NewBackendMetrics registers the backend instruments; nil registry
// yields a nil bundle.
func NewBackendMetrics(r *Registry) *BackendMetrics {
	if r == nil {
		return nil
	}
	return &BackendMetrics{
		RemoteOps:       r.Counter("hidestore_backend_remote_ops_total", "operations issued to the remote backend"),
		RemoteBytes:     r.Counter("hidestore_backend_remote_bytes_total", "payload bytes moved to or from the remote backend"),
		TransientErrors: r.Counter("hidestore_backend_transient_errors_total", "transient remote failures observed"),
		Retries:         r.Counter("hidestore_backend_retries_total", "backend operations re-attempted after a transient failure"),

		FetchNS: r.Histogram("hidestore_backend_fetch_ns", "per-read backend fetch latency through the full stack (ns)"),
	}
}

// RecoveryMetrics instruments startup recovery and durability events.
type RecoveryMetrics struct {
	Rollbacks     *Counter // recipes rolled back at startup
	RedoDeletes   *Counter // half-finished deletes completed at startup
	OrphansSwept  *Counter // unreferenced container images removed
	StartupsClean *Counter // startups that found nothing to repair
}

// NewRecoveryMetrics registers the recovery instruments; nil registry
// yields a nil bundle.
func NewRecoveryMetrics(r *Registry) *RecoveryMetrics {
	if r == nil {
		return nil
	}
	return &RecoveryMetrics{
		Rollbacks:     r.Counter("hidestore_recovery_rollbacks_total", "uncommitted recipes rolled back at startup"),
		RedoDeletes:   r.Counter("hidestore_recovery_redo_deletes_total", "half-finished deletes completed at startup"),
		OrphansSwept:  r.Counter("hidestore_recovery_orphans_total", "orphaned container images swept at startup"),
		StartupsClean: r.Counter("hidestore_recovery_clean_startups_total", "startups with nothing to repair"),
	}
}
