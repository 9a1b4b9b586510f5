package hidestore

// One benchmark per table/figure of the paper's evaluation (§5). Each
// bench runs the corresponding experiment at a reduced scale and reports
// the paper's metric through b.ReportMetric, so `go test -bench=.` prints
// the reproduced numbers. cmd/bench runs the same experiments at full
// scale and renders the complete tables/series.

import (
	"bytes"
	"context"
	"io"
	"testing"

	"hidestore/internal/chunker"
	"hidestore/internal/experiments"
	"hidestore/internal/workload"
)

// benchOptions is the reduced scale used by the benchmarks.
func benchOptions() experiments.Options {
	return experiments.Options{
		ScaleMB:           2,
		Versions:          8,
		ContainerCapacity: 256 << 10,
		ChunkParams:       chunker.Params{Min: 1024, Avg: 4096, Max: 16384},
	}
}

// BenchmarkTable1 regenerates the workload-characteristics table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1([]string{"kernel"}, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].DedupRatio*100, "dedup-ratio-%")
	}
}

// BenchmarkFigure3 regenerates the heuristic experiment of §3.
func BenchmarkFigure3(b *testing.B) {
	for _, name := range []string{"kernel", "macos"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				src, err := experiments.PresetVersions(name, benchOptions())
				if err != nil {
					b.Fatal(err)
				}
				res, err := experiments.Figure3(src, benchOptions())
				if err != nil {
					b.Fatal(err)
				}
				window := 1
				if name == "macos" {
					window = 2
				}
				b.ReportMetric(res.PlateauRatio(1, window)*100, "plateau-%")
			}
		})
	}
}

// BenchmarkFigure8 regenerates the dedup-ratio comparison.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure8([]string{"kernel"}, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Ratio("kernel", "hidestore")*100, "hidestore-ratio-%")
		b.ReportMetric(res.Ratio("kernel", "ddfs")*100, "ddfs-ratio-%")
	}
}

// BenchmarkFigure9 regenerates the lookup-overhead comparison.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure9("kernel", benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.SchemeSeries("ddfs").TotalDiskLookups), "ddfs-lookups")
		b.ReportMetric(float64(res.SchemeSeries("hidestore").TotalDiskLookups), "hidestore-lookups")
	}
}

// BenchmarkFigure10 regenerates the index-memory comparison.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure10("kernel", benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Final("ddfs"), "ddfs-B/MB")
		b.ReportMetric(res.Final("hidestore"), "hidestore-B/MB")
	}
}

// BenchmarkFigure11 regenerates the restore speed-factor comparison.
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure11("kernel", benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Newest("hidestore"), "hidestore-newest-SF")
		b.ReportMetric(res.Newest("alacc-fbw"), "alacc-newest-SF")
		b.ReportMetric(res.Newest("baseline"), "baseline-newest-SF")
	}
}

// BenchmarkFigure12 regenerates the maintenance-overhead measurements.
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure12([]string{"kernel"}, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		row := res.Rows[0]
		b.ReportMetric(float64(row.MeanRecipeUpdate.Microseconds()), "recipe-update-µs")
		b.ReportMetric(float64(row.MeanMigrate.Microseconds()), "migrate-µs")
	}
}

// BenchmarkDeletion regenerates the §5.5 deletion-cost comparison.
func BenchmarkDeletion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Deletion("kernel", 4, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Row("baseline-gc").ChunksScanned), "baseline-chunks-scanned")
		b.ReportMetric(float64(res.Row("hidestore").ChunksScanned), "hidestore-chunks-scanned")
	}
}

// BenchmarkBackupThroughput measures the public API's dedup throughput on
// an adjacent-version workload (bytes/s via b.SetBytes).
func BenchmarkBackupThroughput(b *testing.B) {
	g, err := workload.New(workload.Config{
		Name: "bench", Versions: 2, Files: 32, BlocksPerFile: 16,
		BlockSize: 8192, ModifyRate: 0.05, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	r, err := g.NextVersion()
	if err != nil {
		b.Fatal(err)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := Open(Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Backup(context.Background(), bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestoreFileStore measures restore throughput against a
// file-backed store. Unlike the in-memory benchmarks this one pays a
// real open/read/decode per archival container, which is the latency
// the read-ahead pipeline exists to hide.
func BenchmarkRestoreFileStore(b *testing.B) {
	sys, err := Open(Config{Dir: b.TempDir(), ContainerSize: 256 << 10})
	if err != nil {
		b.Fatal(err)
	}
	g, err := workload.New(workload.Config{
		Name: "bench", Versions: 5, Files: 48, BlocksPerFile: 24,
		BlockSize: 8192, ModifyRate: 0.05, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	var last uint64
	for g.HasNext() {
		r, err := g.NextVersion()
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sys.Backup(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		last = rep.LogicalBytes
	}
	b.SetBytes(int64(last))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sys.Restore(context.Background(), 5, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rep.SpeedFactor, "speed-factor")
		}
	}
}

// BenchmarkRestoreThroughput measures restore throughput of the newest
// version after a short version chain.
func BenchmarkRestoreThroughput(b *testing.B) {
	sys, err := Open(Config{})
	if err != nil {
		b.Fatal(err)
	}
	g, err := workload.New(workload.Config{
		Name: "bench", Versions: 5, Files: 32, BlocksPerFile: 16,
		BlockSize: 8192, ModifyRate: 0.05, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	var last uint64
	for g.HasNext() {
		r, err := g.NextVersion()
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sys.Backup(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		last = rep.LogicalBytes
	}
	b.SetBytes(int64(last))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sys.Restore(context.Background(), 5, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rep.SpeedFactor, "speed-factor")
		}
	}
}
