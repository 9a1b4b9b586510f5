package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"hidestore/internal/backup"
	"hidestore/internal/bufpool"
	"hidestore/internal/chunker"
	"hidestore/internal/metrics"
	"hidestore/internal/workload"
)

// BackupPerfSchemes are the end-to-end backup throughput contenders:
// HiDeStore and the exact-dedup baseline. Unlike Throughput (which
// sweeps every Figure 8 scheme), this experiment is the allocation and
// throughput trajectory for the write hot path, so it keeps the scheme
// set small and adds allocator accounting.
var BackupPerfSchemes = []string{"hidestore", "ddfs"}

// BackupPerfRow is one scheme's end-to-end backup cost on the
// memory-backed store: wall-clock MB/s plus heap allocations per chunk
// (runtime.MemStats mallocs over the whole run divided by chunks
// processed — the end-to-end per-chunk path, not just the chunker) and
// write amplification (container payload bytes written over logical
// bytes, whole chain: unique chunks plus whatever maintenance copied).
// The last two are exact counts, independent of the host.
type BackupPerfRow struct {
	Scheme             string
	MBPerSec           float64
	LogicalBytes       uint64
	Chunks             int
	AllocsPerChunk     float64
	WriteAmplification float64
	Duration           time.Duration
}

// BackupPerfResult compares the write hot path on one workload.
type BackupPerfResult struct {
	Workload string
	Rows     []BackupPerfRow
}

// BackupPerf measures end-to-end backup throughput and allocator
// pressure for a full version chain on the memory-backed store. The
// store is memory-backed on purpose: with I/O out of the picture, the
// numbers isolate the CPU side (chunking, hashing, lookup, container
// packing) that the allocation-free chunk path targets.
func BackupPerf(workloadName string, opts Options) (*BackupPerfResult, error) {
	opts = opts.withDefaults()
	cfg, err := opts.loadWorkload(workloadName)
	if err != nil {
		return nil, err
	}
	res := &BackupPerfResult{Workload: cfg.Name}
	for _, scheme := range BackupPerfSchemes {
		var e backup.Engine
		if scheme == "hidestore" {
			e, err = hidestoreEngine(opts, cfg)
		} else {
			e, err = baselineEngine(opts, scheme, "none", "faa")
		}
		if err != nil {
			return nil, err
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		reports, err := backupAllVersions(e, cfg)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", workloadName, scheme, err)
		}
		row := BackupPerfRow{Scheme: scheme, Duration: elapsed}
		var written uint64
		for _, rep := range reports {
			row.Chunks += rep.Chunks
			row.LogicalBytes += rep.LogicalBytes
			written += rep.ContainerBytesWritten
		}
		if row.LogicalBytes > 0 {
			row.WriteAmplification = float64(written) / float64(row.LogicalBytes)
		}
		if elapsed > 0 {
			row.MBPerSec = float64(row.LogicalBytes) / (1 << 20) / elapsed.Seconds()
		}
		if row.Chunks > 0 {
			row.AllocsPerChunk = float64(after.Mallocs-before.Mallocs) / float64(row.Chunks)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Extras flattens the rows into scalar metrics for BENCH_<exp>.json.
func (r *BackupPerfResult) Extras() map[string]float64 {
	out := map[string]float64{}
	for _, row := range r.Rows {
		out["backup_mb_per_sec_"+row.Scheme] = row.MBPerSec
		out["allocs_per_chunk_"+row.Scheme] = row.AllocsPerChunk
		out["write_amplification_"+row.Scheme] = row.WriteAmplification
	}
	return out
}

// Render formats the comparison.
func (r *BackupPerfResult) Render() string {
	t := metrics.NewTable(fmt.Sprintf("Backup hot path (%s)", r.Workload),
		"scheme", "MB/s", "chunks", "allocs/chunk", "written/logical", "logical", "wall time")
	for _, row := range r.Rows {
		t.AddRow(row.Scheme,
			metrics.FormatFloat(row.MBPerSec),
			fmt.Sprintf("%d", row.Chunks),
			fmt.Sprintf("%.2f", row.AllocsPerChunk),
			fmt.Sprintf("%.3f", row.WriteAmplification),
			metrics.FormatBytes(row.LogicalBytes),
			row.Duration.Round(time.Millisecond).String())
	}
	return t.Render()
}

// ChunkerAlgorithms are benchmarked in declaration order.
var ChunkerAlgorithms = []chunker.Algorithm{
	chunker.Fixed, chunker.Rabin, chunker.TTTD, chunker.FastCDC, chunker.AE,
}

// ChunkerRow is one algorithm's scanning cost over a realistic stream.
type ChunkerRow struct {
	Algorithm      string
	MBPerSec       float64
	Chunks         int
	AvgChunkBytes  float64
	AllocsPerChunk float64
	Duration       time.Duration
}

// ChunkersResult holds the per-algorithm chunking microbenchmark.
type ChunkersResult struct {
	Bytes int64 // bytes scanned per algorithm (all passes)
	Rows  []ChunkerRow
}

// chunkerPasses is how many times each algorithm re-scans the stream;
// multiple passes amortize setup and steady the timing.
const chunkerPasses = 3

// Chunkers measures every chunking algorithm's scan throughput and
// allocations per chunk over the first version of the kernel preset —
// the isolated per-chunk path the tentpole's ≥10× allocation target is
// pinned against.
func Chunkers(opts Options) (*ChunkersResult, error) {
	opts = opts.withDefaults()
	cfg, err := opts.loadWorkload("kernel")
	if err != nil {
		return nil, err
	}
	g, err := workload.New(cfg)
	if err != nil {
		return nil, err
	}
	r, err := g.NextVersion()
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	res := &ChunkersResult{Bytes: int64(len(data)) * chunkerPasses}
	for _, alg := range ChunkerAlgorithms {
		row, err := chunkerRow(alg, data, opts.ChunkParams)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// chunkerRow scans data chunkerPasses times with one algorithm in the
// production backup configuration — pooled buffers, filled by Next and
// released after use — so the measured allocs/chunk is the hot loop's,
// not the throwaway-buffer path's.
func chunkerRow(alg chunker.Algorithm, data []byte, p chunker.Params) (ChunkerRow, error) {
	row := ChunkerRow{Algorithm: alg.String()}
	pool := bufpool.New(p.Max)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for pass := 0; pass < chunkerPasses; pass++ {
		ch, err := chunker.NewPooled(alg, bytes.NewReader(data), p, pool)
		if err != nil {
			return row, err
		}
		for {
			chunk, err := ch.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return row, err
			}
			row.Chunks++
			pool.Release(chunk)
		}
	}
	row.Duration = time.Since(start)
	runtime.ReadMemStats(&after)
	if row.Duration > 0 {
		row.MBPerSec = float64(len(data)) * chunkerPasses / (1 << 20) / row.Duration.Seconds()
	}
	if row.Chunks > 0 {
		row.AvgChunkBytes = float64(len(data)) * chunkerPasses / float64(row.Chunks)
		row.AllocsPerChunk = float64(after.Mallocs-before.Mallocs) / float64(row.Chunks)
	}
	return row, nil
}

// Extras flattens the rows into scalar metrics for BENCH_<exp>.json.
func (r *ChunkersResult) Extras() map[string]float64 {
	out := map[string]float64{}
	for _, row := range r.Rows {
		out["mb_per_sec_"+row.Algorithm] = row.MBPerSec
		out["allocs_per_chunk_"+row.Algorithm] = row.AllocsPerChunk
		out["avg_chunk_bytes_"+row.Algorithm] = row.AvgChunkBytes
	}
	return out
}

// Render formats the microbenchmark.
func (r *ChunkersResult) Render() string {
	t := metrics.NewTable(fmt.Sprintf("Chunker scan (%s over %d passes)",
		metrics.FormatBytes(uint64(r.Bytes)), chunkerPasses),
		"algorithm", "MB/s", "chunks", "avg chunk", "allocs/chunk")
	for _, row := range r.Rows {
		t.AddRow(row.Algorithm,
			metrics.FormatFloat(row.MBPerSec),
			fmt.Sprintf("%d", row.Chunks),
			fmt.Sprintf("%.0f B", row.AvgChunkBytes),
			fmt.Sprintf("%.2f", row.AllocsPerChunk))
	}
	return t.Render()
}
