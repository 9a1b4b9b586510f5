package experiments

import (
	"fmt"
	"io"

	"hidestore/internal/backup"
	"hidestore/internal/metrics"
	"hidestore/internal/workload"
)

// Figure11Schemes are the restore contenders in the paper's order (§5.3):
// the no-rewrite baseline with FAA (destor's default restore cache),
// capping with FAA, the ALACC+FBW combination (the strongest published
// baseline) and HiDeStore.
var Figure11Schemes = []string{"baseline", "capping", "alacc-fbw", "hidestore"}

// Figure11Result holds per-scheme speed-factor curves for one workload.
type Figure11Result struct {
	Workload string
	Schemes  []string
	// SpeedFactor[scheme][v-1] is MB per container read restoring version
	// v after the full chain was backed up.
	SpeedFactor map[string][]float64
}

func buildFigure11Engine(o Options, w workload.Config, scheme string) (backup.Engine, error) {
	switch scheme {
	case "baseline":
		return baselineEngine(o, "ddfs", "none", "faa")
	case "capping":
		return baselineEngine(o, "ddfs", "capping", "faa")
	case "alacc-fbw":
		return baselineEngine(o, "ddfs", "fbw", "alacc")
	case "hidestore":
		return hidestoreEngine(o, w)
	default:
		return nil, fmt.Errorf("experiments: unknown Figure 11 scheme %q", scheme)
	}
}

// Figure11 measures restore speed factors: each scheme backs up the whole
// version chain, then every version is restored (and byte-verified
// against the regenerated original) while counting container reads.
//
// Expected shape (§5.3): the baseline decays steadily as fragmentation
// accumulates; capping and ALACC+FBW decay more slowly at the cost of
// dedup ratio; HiDeStore is the best on the newest versions (up to ~1.6×
// ALACC) while trading away some speed on the oldest versions, whose
// chunks it deliberately exiles to archival containers.
func Figure11(workloadName string, opts Options) (*Figure11Result, error) {
	opts = opts.withDefaults()
	cfg, err := opts.loadWorkload(workloadName)
	if err != nil {
		return nil, err
	}
	res := &Figure11Result{
		Workload:    cfg.Name,
		Schemes:     Figure11Schemes,
		SpeedFactor: make(map[string][]float64),
	}
	for _, scheme := range Figure11Schemes {
		e, err := buildFigure11Engine(opts, cfg, scheme)
		if err != nil {
			return nil, err
		}
		if _, err := backupAllVersions(e, cfg); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", workloadName, scheme, err)
		}
		// Regenerate the workload to verify restored bytes version by
		// version (the generator is deterministic).
		gen, err := workload.New(cfg)
		if err != nil {
			return nil, err
		}
		curve := make([]float64, 0, cfg.Versions)
		for gen.HasNext() {
			r, err := gen.NextVersion()
			if err != nil {
				return nil, err
			}
			want, err := io.ReadAll(r)
			if err != nil {
				return nil, err
			}
			rep, err := restoreVerify(e.Restore, gen.Version(), want)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", workloadName, scheme, err)
			}
			curve = append(curve, rep.Stats.SpeedFactor())
		}
		res.SpeedFactor[scheme] = curve
	}
	return res, nil
}

// Newest returns a scheme's speed factor on the final version.
func (r *Figure11Result) Newest(scheme string) float64 {
	curve := r.SpeedFactor[scheme]
	if len(curve) == 0 {
		return 0
	}
	return curve[len(curve)-1]
}

// Oldest returns a scheme's speed factor on version 1.
func (r *Figure11Result) Oldest(scheme string) float64 {
	curve := r.SpeedFactor[scheme]
	if len(curve) == 0 {
		return 0
	}
	return curve[0]
}

// Render formats the speed-factor curves (Figure 11a-d).
func (r *Figure11Result) Render() string {
	f := metrics.Figure{
		Title:  fmt.Sprintf("Figure 11 (%s): restore performance", r.Workload),
		XLabel: "version",
		YLabel: "speed factor (MB/container-read)",
	}
	for _, scheme := range r.Schemes {
		f.AddSeries(scheme, r.SpeedFactor[scheme])
	}
	return f.Render()
}
