// Package experiments reproduces every table and figure of the paper's
// evaluation (§5) on the synthetic workloads:
//
//	Figure 3  — chunk counts per version tag (the heuristic experiment)
//	Table 1   — workload characteristics
//	Figure 8  — deduplication ratios across schemes
//	Figure 9  — index lookup overhead (lookups per GB) across schemes
//	Figure 10 — index-table space overhead across schemes
//	Figure 11 — restore speed factor across schemes and versions
//	Figure 12 — HiDeStore maintenance overheads
//	§5.5      — deletion cost, HiDeStore vs mark-and-sweep GC
//
// Each runner returns a structured result with a Render method producing
// the same rows/series the paper reports. Absolute numbers differ from the
// paper (different hardware, synthetic data, scaled sizes); the *shapes* —
// who wins, by what rough factor, where curves cross — are the
// reproduction targets and are asserted in the test suite.
package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"hidestore/internal/backup"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/core"
	"hidestore/internal/dedup"
	"hidestore/internal/fp"
	"hidestore/internal/index"
	"hidestore/internal/index/ddfs"
	"hidestore/internal/index/silo"
	"hidestore/internal/index/sparse"
	"hidestore/internal/obs"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
	"hidestore/internal/rewrite"
	"hidestore/internal/workload"
)

// Options tunes experiment scale. The zero value gives a laptop-friendly
// configuration.
type Options struct {
	// ScaleMB is the approximate per-version size in MB (default 4).
	ScaleMB int
	// Versions caps the number of versions per workload (0 = the
	// preset's full count, which can take minutes per figure).
	Versions int
	// ContainerCapacity in bytes (default 1 MB at experiment scale, so
	// container counts stay meaningful on scaled-down versions; pass
	// container.DefaultCapacity for the paper's 4 MB).
	ContainerCapacity int
	// ChunkParams defaults to 2/4/16 KB (the paper's).
	ChunkParams chunker.Params
	// Metrics, when non-nil, is threaded into every engine the
	// experiment builds, so callers (cmd/bench -json) can export
	// machine-readable counters and per-stage latency histograms for
	// the run. Counters accumulate across schemes and workloads within
	// one experiment.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.ScaleMB <= 0 {
		o.ScaleMB = 4
	}
	if o.ContainerCapacity <= 0 {
		o.ContainerCapacity = 1 << 20
	}
	if o.ChunkParams == (chunker.Params{}) {
		o.ChunkParams = chunker.DefaultParams()
	}
	return o
}

// loadWorkload resolves a preset and applies the version cap.
func (o Options) loadWorkload(name string) (workload.Config, error) {
	cfg, err := workload.Preset(name, o.ScaleMB)
	if err != nil {
		return cfg, err
	}
	if o.Versions > 0 && o.Versions < cfg.Versions {
		cfg.Versions = o.Versions
	}
	return cfg, nil
}

// cacheWindow returns HiDeStore's fingerprint-cache window for a
// workload: 2 for macos-like flapping datasets, 1 otherwise (§4.1).
func cacheWindow(cfg workload.Config) int {
	if cfg.FlapRate > 0 {
		return 2
	}
	return 1
}

// forEachVersion streams every version of cfg through fn.
func forEachVersion(cfg workload.Config, fn func(v int, r io.Reader) error) error {
	g, err := workload.New(cfg)
	if err != nil {
		return err
	}
	for g.HasNext() {
		r, err := g.NextVersion()
		if err != nil {
			return err
		}
		if err := fn(g.Version(), r); err != nil {
			return err
		}
	}
	return nil
}

// chunkRefs splits a stream into fingerprinted chunk references without
// retaining payloads — the metadata-only fast path used by the index
// experiments (Figures 3, 9, 10). It cuts with TTTD, as the engines do.
func chunkRefs(r io.Reader, params chunker.Params) ([]index.ChunkRef, error) {
	ch, err := chunker.New(chunker.TTTD, r, params)
	if err != nil {
		return nil, err
	}
	var refs []index.ChunkRef
	for {
		data, err := ch.Next()
		if errors.Is(err, io.EOF) {
			return refs, nil
		}
		if err != nil {
			return nil, err
		}
		refs = append(refs, index.ChunkRef{FP: fp.Of(data), Size: uint32(len(data))})
	}
}

// newBaselineIndex builds a baseline index by name. The in-memory caches
// are scaled down with the experiments: at paper scale (tens of GB, 4 MB
// containers) DDFS's 256 MB locality cache covers 1-2 % of the dataset;
// the same coverage at laptop scale means a handful of container groups,
// not the production default of 64 — otherwise DDFS's lookup overhead
// vanishes and Figure 9's ordering cannot reproduce.
func newBaselineIndex(name string) (index.Index, error) {
	switch name {
	case "ddfs":
		return ddfs.New(ddfs.Options{CacheContainers: 4})
	case "sparse":
		return sparse.New(sparse.Options{})
	case "silo":
		return silo.New(silo.Options{CacheBlocks: 4})
	case "hidestore":
		return core.NewIndexView(1), nil
	default:
		return nil, fmt.Errorf("experiments: unknown index %q", name)
	}
}

// placementSim assigns container IDs the way the write path would: unique
// chunks pack into fixed-capacity containers; duplicates keep their
// existing location. It lets index experiments run without storing chunk
// payloads.
type placementSim struct {
	capacity int
	used     int
	open     container.ID
	next     container.ID
}

func newPlacementSim(capacity int) *placementSim {
	return &placementSim{capacity: capacity}
}

// place returns final container IDs for one classified segment.
func (p *placementSim) place(seg []index.ChunkRef, results []index.Result, session map[fp.FP]container.ID) []container.ID {
	cids := make([]container.ID, len(seg))
	for i, res := range results {
		switch {
		case !res.Duplicate:
			if p.open == 0 || p.used+int(seg[i].Size) > p.capacity {
				p.next++
				p.open = p.next
				p.used = 0
			}
			p.used += int(seg[i].Size)
			cids[i] = p.open
			session[seg[i].FP] = p.open
		case res.CID != 0:
			cids[i] = res.CID
		default:
			cids[i] = session[seg[i].FP]
		}
	}
	return cids
}

// baselineConfig assembles a dedup.Config from component names, on
// memory stores.
func baselineConfig(o Options, indexName, rewriterName, cacheName string) (dedup.Config, error) {
	ix, err := newBaselineIndex(indexName)
	if err != nil {
		return dedup.Config{}, err
	}
	rw, err := rewrite.New(rewriterName)
	if err != nil {
		return dedup.Config{}, err
	}
	if c, ok := rw.(*rewrite.Capping); ok {
		// Scale the cap with the container size so capping stays
		// meaningful on scaled-down experiments (the paper caps per
		// 20 MB segment at 4 MB containers).
		c.Cap = 10
	}
	rc, err := restorecache.New(cacheName)
	if err != nil {
		return dedup.Config{}, err
	}
	return dedup.Config{
		Index:             ix,
		Rewriter:          rw,
		RestoreCache:      rc,
		Store:             container.NewMemStore(),
		Recipes:           recipe.NewMemStore(),
		ContainerCapacity: o.ContainerCapacity,
		ChunkParams:       o.ChunkParams,
		Metrics:           o.Metrics,
	}, nil
}

// baselineEngine assembles a dedup.Engine from component names.
func baselineEngine(o Options, indexName, rewriterName, cacheName string) (backup.Engine, error) {
	cfg, err := baselineConfig(o, indexName, rewriterName, cacheName)
	if err != nil {
		return nil, err
	}
	return dedup.New(cfg)
}

// hidestoreConfig is a core.Config for a workload, on memory stores. Like
// baselineConfig it leaves Chunker unset: every engine the experiments
// build cuts with the engines' default, TTTD, as the product does.
func hidestoreConfig(o Options, w workload.Config) core.Config {
	return core.Config{
		Store:             container.NewMemStore(),
		Recipes:           recipe.NewMemStore(),
		ContainerCapacity: o.ContainerCapacity,
		Window:            cacheWindow(w),
		ChunkParams:       o.ChunkParams,
		RestoreCache:      restorecache.NewFAA(0),
		Metrics:           o.Metrics,
	}
}

// hidestoreEngine assembles a core.Engine for a workload.
func hidestoreEngine(o Options, w workload.Config) (*core.Engine, error) {
	return core.New(hidestoreConfig(o, w))
}

// backupAllVersions runs a full version chain through an engine.
func backupAllVersions(e backup.Engine, cfg workload.Config) ([]backup.BackupReport, error) {
	var reports []backup.BackupReport
	err := forEachVersion(cfg, func(v int, r io.Reader) error {
		rep, err := e.Backup(context.Background(), r)
		if err != nil {
			return fmt.Errorf("backup v%d: %w", v, err)
		}
		reports = append(reports, rep)
		return nil
	})
	return reports, err
}

// restoreDiscard restores a version into a discarding writer, returning
// the restore report.
func restoreDiscard(e backup.Engine, version int) (backup.RestoreReport, error) {
	return e.Restore(context.Background(), version, io.Discard)
}

// restoreVerify restores through restore (an engine's Restore or
// VerifyRestore) and checks the bytes against want.
func restoreVerify(restore func(context.Context, int, io.Writer) (backup.RestoreReport, error), version int, want []byte) (backup.RestoreReport, error) {
	var buf bytes.Buffer
	rep, err := restore(context.Background(), version, &buf)
	if err != nil {
		return rep, err
	}
	if !bytes.Equal(buf.Bytes(), want) {
		return rep, fmt.Errorf("experiments: version %d restored incorrectly", version)
	}
	return rep, nil
}
