// Package hidestore is a deduplicating backup library with high restore
// performance, reproducing "Improving the Restore Performance via
// Physical-Locality Middleware for Backup Systems" (MIDDLEWARE 2020).
//
// HiDeStore modifies the deduplication phase rather than the restore
// phase: chunks are deduplicated only against the previous backup
// version(s) through an in-memory double-hash fingerprint cache, unique
// and still-hot chunks live together in *active* containers, and chunks
// that stop appearing in new versions are exiled to *archival* containers.
// New versions therefore stay physically contiguous — restoring them reads
// few containers — without rewriting duplicates or keeping any on-disk
// fingerprint index.
//
// # Quick start
//
//	sys, err := hidestore.Open(hidestore.Config{Dir: "/var/backups/repo"})
//	if err != nil { ... }
//	rep, err := sys.Backup(ctx, dataStream)       // version 1, 2, 3, ...
//	_, err = sys.Restore(ctx, rep.Version, out)   // byte-exact restore
//	_, err = sys.Delete(1)                        // expire the oldest version
//
// Leave Config.Dir empty for an in-memory system (tests, experiments).
//
// For side-by-side comparisons with the paper's baselines (DDFS, Sparse
// Indexing, SiLo indexing; capping/CBR/CFL/FBW/HAR rewriting; LRU, FAA and
// ALACC restore caches), see OpenBaseline. The full experiment harness
// that regenerates the paper's tables and figures lives in cmd/bench.
package hidestore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"hidestore/internal/backend"
	"hidestore/internal/backup"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/core"
	"hidestore/internal/dedup"
	"hidestore/internal/index"
	"hidestore/internal/index/ddfs"
	"hidestore/internal/index/extbin"
	"hidestore/internal/index/silo"
	"hidestore/internal/index/sparse"
	"hidestore/internal/obs"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
	"hidestore/internal/rewrite"
)

// Config configures a HiDeStore system.
type Config struct {
	// Dir is the storage root; containers and recipes are kept in
	// subdirectories. Empty means fully in-memory (useful for tests and
	// experiments).
	Dir string
	// Window is the fingerprint-cache window in backup versions: 1 (the
	// default) deduplicates against the previous version, 2 suits
	// macos-like workloads whose changes straddle two versions.
	Window int
	// MinChunk/AvgChunk/MaxChunk bound chunk sizes in bytes (defaults
	// 2 KB / 4 KB / 16 KB, the paper's configuration). Streams are cut
	// with TTTD, the paper's chunker.
	MinChunk, AvgChunk, MaxChunk int
	// ContainerSize in bytes (default 4 MB, the paper's).
	ContainerSize int
	// RestoreCache selects the restore strategy: "faa" (default),
	// "alacc", "container-lru", "chunk-lru" or "opt".
	RestoreCache string
	// Compress enables DEFLATE compression of containers at rest (the
	// backend adapter's codec). Compression composes with
	// deduplication: dedup removes repeated chunks, compression shrinks
	// what remains. A store must be reopened with the setting it was
	// written with.
	Compress bool
	// Metrics, when set, mirrors the engine's counters and per-stage
	// latencies into the registry (expose it with obs.StartDebugServer
	// or Registry.WritePrometheus). Nil — the default — disables the
	// observability plane entirely; the hot paths then cost one nil
	// check per instrumentation site.
	Metrics *obs.Registry
	// Tracer, when set, records per-operation spans (backup, restore,
	// container fetches, recovery events) as JSONL. Nil disables
	// tracing. The caller owns the tracer and must Close it.
	Tracer *obs.Tracer
	// Backend selects and tunes the storage-backend stack the stores
	// run on. The zero value is the plain local backend the system has
	// always used.
	Backend BackendConfig
}

// BackendConfig configures the storage-backend stack (internal/backend):
// a simulated remote with latency and transient faults, wrapped by
// retry/backoff. See DESIGN.md "Storage backends".
type BackendConfig struct {
	// Kind selects the stack: "" or "local" is the plain filesystem
	// (or in-memory) store; "remote" interposes the simulated-remote
	// stack between the stores and their bytes.
	Kind string
	// Latency is the simulated per-operation round-trip (remote only).
	Latency time.Duration
	// ErrRate injects transient failures with this per-op probability,
	// in [0, 1) (remote only); the retry layer absorbs them.
	ErrRate float64
	// Seed makes the injected-failure stream deterministic.
	Seed int64
}

// validate rejects remote settings the stack would ignore or could not
// honor: latency or faults on a local store, a negative latency, and an
// error rate of 1 or more, under which every retry fails forever.
func (b BackendConfig) validate() (remote bool, err error) {
	switch b.Kind {
	case "", "local":
		if b.Latency != 0 || b.ErrRate != 0 {
			return false, fmt.Errorf("hidestore: backend latency and error rate need kind %q, not %q", "remote", b.Kind)
		}
		return false, nil
	case "remote":
	default:
		return false, fmt.Errorf("hidestore: unknown backend kind %q", b.Kind)
	}
	if b.Latency < 0 {
		return false, fmt.Errorf("hidestore: negative backend latency %v", b.Latency)
	}
	if b.ErrRate < 0 || b.ErrRate >= 1 {
		return false, fmt.Errorf("hidestore: backend error rate %v outside [0, 1)", b.ErrRate)
	}
	return true, nil
}

func (c Config) chunkParams() chunker.Params {
	p := chunker.DefaultParams()
	if c.MinChunk > 0 {
		p.Min = c.MinChunk
	}
	if c.AvgChunk > 0 {
		p.Avg = c.AvgChunk
	}
	if c.MaxChunk > 0 {
		p.Max = c.MaxChunk
	}
	return p
}

// storeSet bundles what Config.stores assembles: the container and
// recipe stores and the backend the engine state is a blob of (nil: not
// persisted).
type storeSet struct {
	containers container.Store
	recipes    recipe.Store
	state      backend.Backend
}

// stores assembles the three storage planes. Without a Dir an
// uncompressed local system runs on the memory stores. Otherwise each
// plane is a base backend — a backend.Local under Dir, or a backend.Mem
// without one — and a remote system wraps each base in its own
// backend.NewStack; the container adapter compresses when Compress is
// set, and both adapters share one backend.Cache of decoded objects. The
// layout under Dir:
//
//	local:  containers/c_<id>.ctn  recipes/r_<n>.rcp  state.hds
//	remote: remote/containers/…    remote/recipes/…   remote/state/state.hds
//
// Corrupt images go to containers/quarantine/ (remote/containers/quarantine/).
func (c Config) stores() (storeSet, error) {
	remote, err := c.Backend.validate()
	if err != nil {
		return storeSet{}, err
	}
	var set storeSet
	if c.Dir == "" && !remote && !c.Compress {
		set.containers, set.recipes = container.NewMemStore(), recipe.NewMemStore()
	} else {
		var mx *obs.BackendMetrics
		if remote {
			mx = obs.NewBackendMetrics(c.Metrics)
		}
		// plane opens one plane's backend and returns the directory its
		// blob names resolve under ("" in memory).
		plane := func(sub string, seedOffset int64) (backend.Backend, string, error) {
			var dir string
			switch {
			case c.Dir == "":
			case remote:
				dir = filepath.Join(c.Dir, "remote", sub)
			case sub == "state":
				dir = c.Dir
			default:
				dir = filepath.Join(c.Dir, sub)
			}
			var base backend.Backend = backend.NewMem()
			if dir != "" {
				local, err := backend.NewLocal(dir)
				if err != nil {
					return nil, "", err
				}
				base = local
			}
			if !remote {
				return base, dir, nil
			}
			top, _, err := backend.NewStack(base, backend.StackOptions{
				Sim:     backend.SimOptions{Latency: c.Backend.Latency, ErrRate: c.Backend.ErrRate, Seed: c.Backend.Seed + seedOffset},
				Retry:   backend.RetryOptions{Seed: c.Backend.Seed + seedOffset},
				Metrics: mx,
				Tracer:  c.Tracer,
			})
			return top, dir, err
		}
		cb, cdir, err := plane("containers", 0)
		if err != nil {
			return storeSet{}, err
		}
		rb, _, err := plane("recipes", 1)
		if err != nil {
			return storeSet{}, err
		}
		cache := backend.NewCache(backend.CacheBudget)
		set.containers = backend.NewContainerStore(cb, cdir, c.Compress).Cached(cache)
		set.recipes = backend.NewRecipeStore(rb).Cached(cache)
		if c.Dir != "" {
			if set.state, _, err = plane("state", 2); err != nil {
				return storeSet{}, err
			}
		}
	}
	return set, nil
}

func (c Config) restoreCache() (restorecache.Cache, error) {
	if c.RestoreCache == "" {
		return restorecache.NewFAA(0), nil
	}
	return restorecache.New(c.RestoreCache)
}

// BackupReport summarizes one backed-up version.
type BackupReport struct {
	// Version is the sequential version number, starting at 1.
	Version int
	// LogicalBytes is the size of the backed-up stream.
	LogicalBytes uint64
	// StoredBytes is the new payload written (unique chunks).
	StoredBytes uint64
	// Chunks and UniqueChunks count the stream's chunks and the stored
	// subset.
	Chunks       int
	UniqueChunks int
	// DedupRatio is eliminated bytes over logical bytes for this version.
	DedupRatio float64
	// ContainerBytesWritten is the payload of every container image the
	// version put: StoredBytes plus MigratedBytes (cold chunks copied to
	// archival containers) plus MergedBytes (sparse containers
	// repacked). Over LogicalBytes it is the write amplification.
	ContainerBytesWritten uint64
	MigratedBytes         uint64
	MergedBytes           uint64
	// Duration covers the dedup phase; MaintenanceDuration the
	// post-version cold-chunk migration and recipe update.
	Duration            time.Duration
	MaintenanceDuration time.Duration
	// CommitWait is the part of Duration the backup spent blocked on
	// container writes: waiting for a free slot of the commit plane and
	// at its fences before the recipe and state writes. The remaining
	// write latency was hidden behind chunking and packing.
	CommitWait time.Duration
}

// RestoreReport summarizes one restore.
type RestoreReport struct {
	Version int
	// BytesRestored is the logical stream size written out.
	BytesRestored uint64
	// ContainerReads counts container fetches — the paper's restore cost.
	ContainerReads uint64
	// SpeedFactor is MB restored per container read (higher is better).
	SpeedFactor float64
	// RecipesRead counts recipe reads: the version's own plus, on a
	// HiDeStore system, the newer ones its forward pointers led to.
	RecipesRead uint64
	// ResidentReads counts the container reads a HiDeStore system's
	// active containers served from the engine's memory instead of the
	// store. They are part of ContainerReads; the store served the rest,
	// from its cache of decoded images or from storage.
	ResidentReads uint64
	Duration      time.Duration
}

func restoreReport(rep backup.RestoreReport) RestoreReport {
	return RestoreReport{
		Version:        rep.Version,
		BytesRestored:  rep.Stats.BytesRestored,
		ContainerReads: rep.Stats.ContainerReads,
		SpeedFactor:    rep.Stats.SpeedFactor(),
		RecipesRead:    rep.RecipesRead,
		ResidentReads:  rep.ResidentReads,
		Duration:       rep.Duration,
	}
}

// DeleteReport summarizes removing an expired version.
type DeleteReport struct {
	Version           int
	ContainersDeleted int
	BytesReclaimed    uint64
	Duration          time.Duration
}

// Stats is a system-wide snapshot.
type Stats struct {
	Versions     int
	LogicalBytes uint64
	StoredBytes  uint64
	// DedupRatio is cumulative eliminated bytes over logical bytes.
	DedupRatio float64
	Containers int
	// IndexMemoryBytes is the persistent fingerprint-index footprint
	// (always 0 for HiDeStore; grows with data for baselines).
	IndexMemoryBytes int64
	// DiskIndexLookups counts on-disk index lookups (always 0 for
	// HiDeStore).
	DiskIndexLookups uint64
	// Degraded names snapshot fields that could not be computed (for
	// example, Containers when the store directory is unreadable), each
	// with the underlying error. Empty on a healthy system. The values of
	// degraded fields are zero — check this list before trusting zeros.
	Degraded []string
}

// System is a deduplicating backup system. Methods are safe for
// concurrent use; operations are serialized internally (the underlying
// engines are single-writer by design, like the paper's prototype).
type System struct {
	mu     sync.Mutex
	engine backup.Engine
}

// Open creates or reopens a HiDeStore system. With a non-empty Dir the
// full state — containers, recipes, and the engine's fingerprint-cache
// bookkeeping — persists on disk, so reopening resumes the version history
// exactly where the previous process stopped. (The Window must match the
// one the directory was created with.)
func Open(cfg Config) (*System, error) {
	set, err := cfg.stores()
	if err != nil {
		return nil, err
	}
	rc, err := cfg.restoreCache()
	if err != nil {
		return nil, err
	}
	e, err := core.New(core.Config{
		ChunkParams:       cfg.chunkParams(),
		Store:             set.containers,
		Recipes:           set.recipes,
		ContainerCapacity: cfg.ContainerSize,
		Window:            cfg.Window,
		RestoreCache:      rc,
		State:             set.state,
		Metrics:           cfg.Metrics,
		Tracer:            cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	return &System{engine: e}, nil
}

// BaselineConfig configures a destor-style baseline system for
// comparisons.
type BaselineConfig struct {
	// Config supplies chunking, container and restore-cache settings
	// (Window is ignored).
	Config
	// Index selects the fingerprint index: "ddfs" (default), "sparse",
	// "silo" or "extbin".
	Index string
	// Rewriter selects duplicate rewriting: "none" (default), "capping",
	// "cbr", "cfl", "fbw" or "har".
	Rewriter string
}

// OpenBaseline creates a traditional deduplication system — the kind the
// paper compares HiDeStore against.
func OpenBaseline(cfg BaselineConfig) (*System, error) {
	set, err := cfg.stores()
	if err != nil {
		return nil, err
	}
	rc, err := cfg.restoreCache()
	if err != nil {
		return nil, err
	}
	var ix index.Index
	switch cfg.Index {
	case "", "ddfs":
		ix, err = ddfs.New(ddfs.Options{})
	case "sparse":
		ix, err = sparse.New(sparse.Options{})
	case "silo":
		ix, err = silo.New(silo.Options{})
	case "extbin":
		ix, err = extbin.New(extbin.Options{})
	default:
		err = fmt.Errorf("hidestore: unknown index %q", cfg.Index)
	}
	if err != nil {
		return nil, err
	}
	rw, err := rewrite.New(cfg.Rewriter)
	if err != nil {
		return nil, err
	}
	e, err := dedup.New(dedup.Config{
		ChunkParams:       cfg.chunkParams(),
		Index:             ix,
		Rewriter:          rw,
		RestoreCache:      rc,
		Store:             set.containers,
		Recipes:           set.recipes,
		ContainerCapacity: cfg.ContainerSize,
		Metrics:           cfg.Metrics,
		Tracer:            cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	return &System{engine: e}, nil
}

// ErrNilReader reports a nil backup source.
var ErrNilReader = errors.New("hidestore: nil reader")

// Backup deduplicates and stores one version stream; versions are
// numbered sequentially from 1.
func (s *System) Backup(ctx context.Context, r io.Reader) (BackupReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r == nil {
		return BackupReport{}, ErrNilReader
	}
	rep, err := s.engine.Backup(ctx, r)
	if err != nil {
		return BackupReport{}, err
	}
	return BackupReport{
		Version:               rep.Version,
		LogicalBytes:          rep.LogicalBytes,
		StoredBytes:           rep.StoredBytes,
		Chunks:                rep.Chunks,
		UniqueChunks:          rep.UniqueChunks,
		DedupRatio:            rep.DedupRatio(),
		ContainerBytesWritten: rep.ContainerBytesWritten,
		MigratedBytes:         rep.MigratedBytes,
		MergedBytes:           rep.MergedBytes,
		Duration:              rep.Duration,
		MaintenanceDuration:   rep.MaintenanceDuration,
		CommitWait:            rep.CommitWait,
	}, nil
}

// Restore writes the exact bytes of a stored version to w. Given more
// than one CPU (GOMAXPROCS), it assembles ~1 MB spans on up to four
// goroutines and writes them to w in order from one; the bytes and the
// stats are the same at any width.
func (s *System) Restore(ctx context.Context, version int, w io.Writer) (RestoreReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, err := s.engine.Restore(ctx, version, w)
	if err != nil {
		return RestoreReport{}, err
	}
	return restoreReport(rep), nil
}

// Delete expires a version. HiDeStore systems require oldest-first
// deletion (and versions must have left the fingerprint-cache window);
// baseline systems accept any version at garbage-collection cost.
func (s *System) Delete(version int) (DeleteReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, err := s.engine.Delete(version)
	if err != nil {
		return DeleteReport{}, err
	}
	return DeleteReport{
		Version:           rep.Version,
		ContainersDeleted: rep.ContainersDeleted,
		BytesReclaimed:    rep.BytesReclaimed,
		Duration:          rep.Duration,
	}, nil
}

// FsckReport summarizes an integrity check of the whole store.
type FsckReport struct {
	// Versions and Chunks count the recipes walked and entries resolved.
	Versions int
	Chunks   int
	// Containers and StoredChunks count the container images verified.
	Containers   int
	StoredChunks int
	// Problems lists every inconsistency found; empty means healthy.
	Problems []string
	// Quarantined lists the paths corrupt container images were moved to.
	// Always empty for the read-only Fsck; filled by FsckRepair.
	Quarantined []string
	// AffectedVersions lists versions with at least one chunk lost to a
	// quarantined container — the versions whose restores will fail.
	// Always empty for the read-only Fsck; filled by FsckRepair.
	AffectedVersions []int
}

// OK reports whether the check found no problems.
func (r FsckReport) OK() bool { return len(r.Problems) == 0 }

// Fsck verifies store integrity offline: every container decodes, every
// chunk's content hashes to its fingerprint, and every recipe entry is
// resolvable to a stored chunk. Read-only.
func (s *System) Fsck() (FsckReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	checker, ok := s.engine.(backup.Checker)
	if !ok {
		return FsckReport{}, errors.New("hidestore: engine does not support integrity checks")
	}
	rep, err := checker.Check()
	if err != nil {
		return FsckReport{}, err
	}
	return FsckReport{
		Versions:     rep.Versions,
		Chunks:       rep.Chunks,
		Containers:   rep.Containers,
		StoredChunks: rep.StoredChunks,
		Problems:     rep.Problems,
	}, nil
}

// FsckRepair runs the same audit as Fsck, but moves containers that fail
// to decode into the store's quarantine directory (they are never
// deleted — the images stay available for forensics) and names every
// version that lost chunks to a quarantined container in
// AffectedVersions. Healthy data is never touched; running FsckRepair on
// a healthy store is equivalent to Fsck.
func (s *System) FsckRepair() (FsckReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	repairer, ok := s.engine.(backup.Repairer)
	if !ok {
		return FsckReport{}, errors.New("hidestore: engine does not support repair")
	}
	rep, err := repairer.Repair()
	if err != nil {
		return FsckReport{}, err
	}
	return FsckReport{
		Versions:         rep.Versions,
		Chunks:           rep.Chunks,
		Containers:       rep.Containers,
		StoredChunks:     rep.StoredChunks,
		Problems:         rep.Problems,
		Quarantined:      rep.Quarantined,
		AffectedVersions: rep.AffectedVersions,
	}, nil
}

// FlattenReport summarizes an offline recipe-chain flattening pass.
type FlattenReport struct {
	// Versions is the number of stored versions whose recipes were walked.
	Versions int
	Duration time.Duration
}

// Flatten runs the paper's Algorithm 1 offline: it collapses recipe
// forward-pointer chains so later restores of old versions follow none.
// Only HiDeStore systems support it. It is safe to run at any time; a
// restore follows, and collapses, its own version's pointers when needed.
func (s *System) Flatten() (FlattenReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.engine.(*core.Engine)
	if !ok {
		return FlattenReport{}, errors.New("hidestore: flatten requires a HiDeStore engine")
	}
	start := time.Now()
	versions := e.Versions()
	if len(versions) == 0 {
		return FlattenReport{}, nil
	}
	if err := e.FlattenRecipes(versions[0]); err != nil {
		return FlattenReport{}, err
	}
	return FlattenReport{Versions: len(versions), Duration: time.Since(start)}, nil
}

// VerifyRestore restores a version into w while recomputing every fetched
// chunk's fingerprint — a scrub-on-read. Only HiDeStore systems support
// it; baseline systems return an error.
func (s *System) VerifyRestore(ctx context.Context, version int, w io.Writer) (RestoreReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.engine.(*core.Engine)
	if !ok {
		return RestoreReport{}, errors.New("hidestore: verified restore requires a HiDeStore engine")
	}
	rep, err := e.VerifyRestore(ctx, version, w)
	if err != nil {
		return RestoreReport{}, err
	}
	return restoreReport(rep), nil
}

// ScrubOptions configures the online scrubber.
type ScrubOptions struct {
	// ThrottleMBps caps the scrubber's verification I/O rate (MB/s of
	// container payload read and hashed per second, averaged): after
	// each container the scrubber sleeps long enough that the pass
	// stays under the cap, so foreground backups and restores keep the
	// disk. 0 selects a conservative default (32 MB/s); negative
	// disables throttling (full speed — tests, drills).
	ThrottleMBps float64
	// OnStep, when set, observes every scrub step's report (after the
	// step completes, outside the system lock). Errors from the store
	// are surfaced the same way, with a synthetic report. Intended for
	// logging and tests.
	OnStep func(backup.ScrubStepReport, error)
}

// StartScrub starts the online scrubber: a background goroutine that
// continuously verifies container images — decode, CRC, and every
// chunk's content against its fingerprint — one container per step,
// interleaving with foreground operations (each step takes the system
// lock, so backups and restores are never raced, only briefly queued
// behind one container's verification). Corruption that survives a
// definitive re-read is quarantined and surfaced through
// Stats().Degraded and the scrub metrics.
//
// The returned stop function halts the scrubber and waits for the
// in-flight step to finish; it is safe to call more than once. Only
// HiDeStore engines support scrubbing.
func (s *System) StartScrub(opts ScrubOptions) (stop func(), err error) {
	scrubber, ok := s.engine.(backup.Scrubber)
	if !ok {
		return nil, errors.New("hidestore: engine does not support scrubbing")
	}
	throttle := opts.ThrottleMBps
	if throttle == 0 {
		throttle = 32
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ctx.Err() == nil {
			s.mu.Lock()
			rep, err := scrubber.ScrubStep(ctx)
			s.mu.Unlock()
			if opts.OnStep != nil {
				opts.OnStep(rep, err)
			}
			if ctx.Err() != nil {
				return
			}
			// Pace to the throttle: sleep as long as reading rep.Bytes
			// at ThrottleMBps would have taken, with a floor so an
			// empty or skipped step cannot spin, and a store error
			// backs off rather than hammering a broken store.
			pause := 10 * time.Millisecond
			if err != nil {
				pause = time.Second
			} else if throttle > 0 && rep.Bytes > 0 {
				d := time.Duration(float64(rep.Bytes) / (throttle * (1 << 20)) * float64(time.Second))
				if d > pause {
					pause = d
				}
			}
			select {
			case <-time.After(pause):
			case <-ctx.Done():
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			cancel()
			<-done
		})
	}, nil
}

// Versions lists stored version numbers in ascending order.
func (s *System) Versions() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.engine.Versions()
}

// Stats returns a system-wide snapshot.
func (s *System) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.engine.Stats()
	return Stats{
		Versions:         st.Versions,
		LogicalBytes:     st.LogicalBytes,
		StoredBytes:      st.StoredBytes,
		DedupRatio:       st.DedupRatio(),
		Containers:       st.Containers,
		IndexMemoryBytes: st.IndexMemBytes,
		DiskIndexLookups: st.IndexStats.DiskLookups,
		Degraded:         st.Degraded,
	}
}

// LayoutPolicyEstimate is one cache policy's simulated restore cost.
type LayoutPolicyEstimate struct {
	Policy         string  `json:"policy"`
	ContainerReads uint64  `json:"container_reads"`
	CacheHits      uint64  `json:"cache_hits"`
	SpeedFactor    float64 `json:"speed_factor"`
}

// LayoutReport is the physical-locality profile of one stored version:
// fragmentation (CFL: optimal over actual containers, 1.0 = perfectly
// packed), container utilization (live over stored payload in the
// referenced containers), the infinite-cache read cost per MB, and the
// simulated restore cost under each cache policy. See
// System.AnalyzeLayout.
type LayoutReport struct {
	Version           int                    `json:"version"`
	LogicalBytes      uint64                 `json:"logical_bytes"`
	Chunks            int                    `json:"chunks"`
	UniqueContainers  int                    `json:"unique_containers"`
	OptimalContainers int                    `json:"optimal_containers"`
	CFL               float64                `json:"cfl"`
	ContainersPerMB   float64                `json:"containers_per_mb"`
	Utilization       float64                `json:"utilization"`
	ReferencedBytes   uint64                 `json:"referenced_bytes"`
	ContainerBytes    uint64                 `json:"container_bytes"`
	Policies          []LayoutPolicyEstimate `json:"policies"`
}

// AnalyzeLayout analyzes a version's physical layout without restoring
// it: it walks the recipe and the referenced containers' indexes, then
// replays the container reference stream through the real cache-policy
// implementations in memory. The per-policy ContainerReads therefore
// equals what a real restore would measure — exactly, not
// approximately. A nil policies slice analyzes every policy; an empty
// one skips simulation and reports only the layout metrics. Read-only:
// unlike Restore, the forward pointers it follows are not written back.
func (s *System) AnalyzeLayout(ctx context.Context, version int, policies []string) (LayoutReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	an, ok := s.engine.(backup.LayoutAnalyzer)
	if !ok {
		return LayoutReport{}, errors.New("hidestore: engine does not support layout analysis")
	}
	rep, err := an.AnalyzeLayout(ctx, version, policies)
	if err != nil {
		return LayoutReport{}, err
	}
	out := LayoutReport{
		Version:           rep.Version,
		LogicalBytes:      rep.LogicalBytes,
		Chunks:            rep.Chunks,
		UniqueContainers:  rep.UniqueContainers,
		OptimalContainers: rep.OptimalContainers,
		CFL:               rep.CFL,
		ContainersPerMB:   rep.ContainersPerMB,
		Utilization:       rep.Utilization,
		ReferencedBytes:   rep.ReferencedBytes,
		ContainerBytes:    rep.ContainerBytes,
	}
	for _, p := range rep.Policies {
		out.Policies = append(out.Policies, LayoutPolicyEstimate{
			Policy:         p.Policy,
			ContainerReads: p.ContainerReads,
			CacheHits:      p.CacheHits,
			SpeedFactor:    p.SpeedFactor,
		})
	}
	return out, nil
}

// Health is the system's liveness/degradation snapshot served by the
// ops server's /healthz endpoint.
type Health struct {
	// Status is "ok", or "degraded" when any stats field could not be
	// computed or the scrubber has found damage (both surface through
	// Degraded).
	Status string `json:"status"`
	// Degraded mirrors Stats().Degraded: unreadable snapshot fields and
	// "scrub:"-prefixed damage findings.
	Degraded []string `json:"degraded,omitempty"`
	// Versions and Containers locate the store's size at a glance.
	Versions   int `json:"versions"`
	Containers int `json:"containers"`
	// ScrubDone/ScrubTotal report the online scrubber's progress through
	// its current pass's container snapshot; both are 0 when the engine
	// does not scrub or no pass has started.
	ScrubDone  int `json:"scrub_done"`
	ScrubTotal int `json:"scrub_total"`
}

// OK reports whether the status is healthy.
func (h Health) OK() bool { return h.Status == "ok" }

// Health returns the degradation snapshot: Stats().Degraded decides
// the status (any entry — an unreadable store, scrub-confirmed
// corruption — marks the system degraded), and engines with an online
// scrubber contribute pass progress.
func (s *System) Health() Health {
	st := s.Stats() // takes the lock itself
	h := Health{
		Status:     "ok",
		Degraded:   st.Degraded,
		Versions:   st.Versions,
		Containers: st.Containers,
	}
	if len(st.Degraded) > 0 {
		h.Status = "degraded"
	}
	s.mu.Lock()
	if pr, ok := s.engine.(backup.ScrubProgressReporter); ok {
		h.ScrubDone, h.ScrubTotal = pr.ScrubProgress()
	}
	s.mu.Unlock()
	return h
}
