package experiments

import (
	"fmt"
	"io"
	"strconv"

	"hidestore/internal/fp"
	"hidestore/internal/metrics"
	"hidestore/internal/workload"
)

// Figure3Result is the heuristic experiment of §3: after processing each
// backup version with an infinite metadata buffer, how many chunks carry
// each version tag (the most recent version containing them).
type Figure3Result struct {
	Workload string
	Versions int
	// Counts[tag-1][v-1] is the number of chunks with version tag `tag`
	// after processing version v (0 for v < tag).
	Counts [][]int
}

// VersionSource is a version chain read oldest first: Name labels it,
// Count is its length, and Open returns version v's stream, called once
// for each v from 1 to Count in order.
type VersionSource struct {
	Name  string
	Count int
	Open  func(v int) (io.ReadCloser, error)
}

// PresetVersions is a workload preset's chain at opts' scale and version
// cap.
func PresetVersions(workloadName string, opts Options) (VersionSource, error) {
	opts = opts.withDefaults()
	cfg, err := opts.loadWorkload(workloadName)
	if err != nil {
		return VersionSource{}, err
	}
	g, err := workload.New(cfg)
	if err != nil {
		return VersionSource{}, err
	}
	return VersionSource{Name: cfg.Name, Count: cfg.Versions, Open: func(int) (io.ReadCloser, error) {
		r, err := g.NextVersion()
		if err != nil {
			return nil, err
		}
		return io.NopCloser(r), nil
	}}, nil
}

// Figure3 reproduces the §3 heuristic experiment on one version chain.
//
// The buffer mirrors the paper's Destor instrumentation: every chunk's
// metadata is kept with a version tag; deduplicating version v retags every
// chunk it contains to v. A tag's population therefore drops when its
// chunks reappear in newer versions — and the paper's observation is that
// the drop happens almost entirely in the very next version (or two, for
// macos), after which the count plateaus: chunks that leave the stream do
// not come back.
func Figure3(src VersionSource, opts Options) (*Figure3Result, error) {
	opts = opts.withDefaults()
	res := &Figure3Result{
		Workload: src.Name,
		Versions: src.Count,
		Counts:   make([][]int, src.Count),
	}
	for i := range res.Counts {
		res.Counts[i] = make([]int, src.Count)
	}
	tags := make(map[fp.FP]int) // chunk → most recent version containing it
	for v := 1; v <= src.Count; v++ {
		r, err := src.Open(v)
		if err != nil {
			return nil, err
		}
		refs, err := chunkRefs(r, opts.ChunkParams)
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("version %d: %w", v, err)
		}
		for _, c := range refs {
			tags[c.FP] = v
		}
		// Census after processing version v.
		counts := make([]int, src.Count+1)
		for _, tag := range tags {
			counts[tag]++
		}
		for tag := 1; tag <= v; tag++ {
			res.Counts[tag-1][v-1] = counts[tag]
		}
	}
	return res, nil
}

// PlateauRatio measures the paper's claim for one tag: the fraction of the
// total drop in tag-t chunks that happened within `window` versions after
// t. Near 1.0 means "chunks not in the next version(s) never reappear".
func (r *Figure3Result) PlateauRatio(tag, window int) float64 {
	if tag < 1 || tag > r.Versions {
		return 0
	}
	row := r.Counts[tag-1]
	initial := row[tag-1]
	final := row[r.Versions-1]
	totalDrop := initial - final
	if totalDrop <= 0 {
		return 1
	}
	at := tag - 1 + window
	if at >= r.Versions {
		at = r.Versions - 1
	}
	earlyDrop := initial - row[at]
	return float64(earlyDrop) / float64(totalDrop)
}

// Render returns the per-tag chunk counts as an aligned table (columns:
// after-version; rows: version tags), mirroring the bars of Figure 3.
func (r *Figure3Result) Render() string {
	headers := []string{"tag\\after"}
	for v := 1; v <= r.Versions; v++ {
		headers = append(headers, "v"+strconv.Itoa(v))
	}
	t := metrics.NewTable(fmt.Sprintf("Figure 3 (%s): chunks per version tag", r.Workload), headers...)
	for tag := 1; tag <= r.Versions; tag++ {
		row := []string{"V" + strconv.Itoa(tag)}
		for v := 1; v <= r.Versions; v++ {
			if v < tag {
				row = append(row, "-")
			} else {
				row = append(row, strconv.Itoa(r.Counts[tag-1][v-1]))
			}
		}
		t.AddRow(row...)
	}
	return t.Render()
}
