package experiments

import (
	"strings"
	"testing"

	"hidestore/internal/chunker"
)

// testOptions keeps experiment tests fast: ~2 MB versions, 8 versions,
// small containers and chunks.
func testOptions() Options {
	return Options{
		ScaleMB:           2,
		Versions:          8,
		ContainerCapacity: 256 << 10,
		ChunkParams:       chunker.Params{Min: 1024, Avg: 4096, Max: 16384},
	}
}

func TestLoadWorkloadCapsVersions(t *testing.T) {
	opts := testOptions()
	cfg, err := opts.loadWorkload("kernel")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Versions != 8 {
		t.Fatalf("Versions = %d, want 8", cfg.Versions)
	}
	if _, err := opts.loadWorkload("bogus"); err == nil {
		t.Fatal("unknown workload should fail")
	}
}

// TestFigure3Shape asserts the §3 observation: chunks that leave the
// stream at version t+1 almost never reappear, so the drop in tag-t
// population happens within one version (two for macos).
func TestFigure3Shape(t *testing.T) {
	src, err := PresetVersions("kernel", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Figure3(src, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Versions != 8 {
		t.Fatalf("Versions = %d", res.Versions)
	}
	// Tag 1 population must drop at version 2 and then plateau.
	v1 := res.Counts[0]
	if v1[0] == 0 {
		t.Fatal("no chunks after version 1")
	}
	if v1[1] >= v1[0] {
		t.Fatalf("V1 chunks did not drop at version 2: %v", v1)
	}
	for _, tag := range []int{1, 2, 3} {
		if ratio := res.PlateauRatio(tag, 1); ratio < 0.85 {
			t.Errorf("tag %d: only %.0f%% of the drop within one version; want ≥85%%", tag, ratio*100)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "V1") {
		t.Fatal("render output malformed")
	}
}

// TestFigure3MacOSNeedsTwoVersions asserts the Figure 3d anomaly: with
// flapping chunks, a one-version window misses part of the drop that a
// two-version window captures.
func TestFigure3MacOSNeedsTwoVersions(t *testing.T) {
	src, err := PresetVersions("macos", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Figure3(src, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	var oneWin, twoWin float64
	for _, tag := range []int{1, 2, 3} {
		oneWin += res.PlateauRatio(tag, 1)
		twoWin += res.PlateauRatio(tag, 2)
	}
	if twoWin <= oneWin {
		t.Fatalf("two-version window (%.2f) should capture more of the drop than one (%.2f)",
			twoWin/3, oneWin/3)
	}
}

func TestTable1Shape(t *testing.T) {
	res, err := Table1(nil, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.TotalBytes == 0 || row.Versions != 8 {
			t.Fatalf("row %+v malformed", row)
		}
		if row.DedupRatio < 0.3 || row.DedupRatio > 0.99 {
			t.Fatalf("%s dedup ratio %.2f implausible", row.Workload, row.DedupRatio)
		}
	}
	// gcc must be the least redundant workload, as in Table 1.
	ratios := make(map[string]float64)
	for _, row := range res.Rows {
		ratios[row.Workload] = row.DedupRatio
	}
	if ratios["gcc"] >= ratios["kernel"] || ratios["gcc"] >= ratios["fslhomes"] {
		t.Fatalf("gcc should have the lowest dedup ratio: %v", ratios)
	}
	if !strings.Contains(res.Render(), "Table 1") {
		t.Fatal("render malformed")
	}
}

// TestFigure8Shape asserts the dedup-ratio ordering of §5.2.1.
func TestFigure8Shape(t *testing.T) {
	res, err := Figure8([]string{"kernel"}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	ddfs := res.Ratio("kernel", "ddfs")
	hide := res.Ratio("kernel", "hidestore")
	silo := res.Ratio("kernel", "silo")
	sparse := res.Ratio("kernel", "sparse")
	capping := res.Ratio("kernel", "capping")
	fbw := res.Ratio("kernel", "alacc-fbw")
	if ddfs <= 0 {
		t.Fatalf("ddfs ratio missing: %+v", res.Rows)
	}
	// HiDeStore ≈ DDFS (within 2 points).
	if hide < ddfs-0.02 {
		t.Errorf("hidestore %.4f should be within 2 points of ddfs %.4f", hide, ddfs)
	}
	// Nothing beats exact dedup.
	for _, r := range []float64{hide, silo, sparse, capping, fbw} {
		if r > ddfs+1e-9 {
			t.Errorf("some scheme (%.4f) beats exact dedup (%.4f)", r, ddfs)
		}
	}
	// Rewriting costs ratio relative to its own base (silo).
	if capping >= silo {
		t.Errorf("capping %.4f should lose ratio against silo %.4f", capping, silo)
	}
	if !strings.Contains(res.Render(), "Figure 8") {
		t.Fatal("render malformed")
	}
}

// TestFigure9Shape asserts the lookup-overhead ordering of §5.2.2.
func TestFigure9Shape(t *testing.T) {
	res, err := Figure9("kernel", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	hide := res.SchemeSeries("hidestore")
	dd := res.SchemeSeries("ddfs")
	if hide == nil || dd == nil {
		t.Fatal("series missing")
	}
	if hide.TotalDiskLookups != 0 {
		t.Fatalf("hidestore performed %d disk lookups, want 0", hide.TotalDiskLookups)
	}
	if dd.TotalDiskLookups == 0 {
		t.Fatal("ddfs should pay disk lookups on duplicates")
	}
	for _, scheme := range []string{"ddfs", "sparse", "silo"} {
		s := res.SchemeSeries(scheme)
		if s.TotalDiskLookups < hide.TotalDiskLookups {
			t.Errorf("%s beat hidestore on lookups", scheme)
		}
	}
	if !strings.Contains(res.Render(), "Figure 9") {
		t.Fatal("render malformed")
	}
}

// TestFigure10Shape asserts the index-memory ordering of §5.2.3.
func TestFigure10Shape(t *testing.T) {
	res, err := Figure10("kernel", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	hide := res.Final("hidestore")
	dd := res.Final("ddfs")
	sp := res.Final("sparse")
	si := res.Final("silo")
	if hide != 0 {
		t.Fatalf("hidestore index bytes/MB = %v, want 0", hide)
	}
	if dd <= sp || dd <= si {
		t.Fatalf("ddfs (%.1f) should dominate sparse (%.1f) and silo (%.1f)", dd, sp, si)
	}
	if !strings.Contains(res.Render(), "Figure 10") {
		t.Fatal("render malformed")
	}
}

// TestFigure11Shape asserts the §5.3 restore ordering: HiDeStore wins on
// the newest versions; the baseline decays with fragmentation.
func TestFigure11Shape(t *testing.T) {
	res, err := Figure11("kernel", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range Figure11Schemes {
		if len(res.SpeedFactor[scheme]) != 8 {
			t.Fatalf("%s curve has %d points, want 8", scheme, len(res.SpeedFactor[scheme]))
		}
	}
	hideNew := res.Newest("hidestore")
	baseNew := res.Newest("baseline")
	fbwNew := res.Newest("alacc-fbw")
	if hideNew <= baseNew {
		t.Errorf("hidestore newest %.2f should beat baseline %.2f", hideNew, baseNew)
	}
	if hideNew < fbwNew {
		t.Errorf("hidestore newest %.2f should be at least ALACC+FBW %.2f", hideNew, fbwNew)
	}
	// The baseline's speed factor must decay from version 1 to the end
	// (fragmentation accumulates).
	if res.Oldest("baseline") <= res.Newest("baseline") {
		t.Errorf("baseline should decay over versions: v1 %.2f, v8 %.2f",
			res.Oldest("baseline"), res.Newest("baseline"))
	}
	if !strings.Contains(res.Render(), "Figure 11") {
		t.Fatal("render malformed")
	}
}

// TestFigure12Shape asserts maintenance overheads are recorded and
// bounded.
func TestFigure12Shape(t *testing.T) {
	res, err := Figure12([]string{"kernel"}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	if row.MeanMigrate <= 0 || row.MeanRecipeUpdate <= 0 {
		t.Fatalf("maintenance latencies not recorded: %+v", row)
	}
	if row.FlattenLatency <= 0 {
		t.Fatalf("flatten latency not recorded: %+v", row)
	}
	if !strings.Contains(res.Render(), "Figure 12") {
		t.Fatal("render malformed")
	}
}

// TestDeletionShape asserts the §5.5 contrast: HiDeStore deletes without
// scanning or rewriting; the baseline pays for GC.
func TestDeletionShape(t *testing.T) {
	res, err := Deletion("kernel", 4, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	hide := res.Row("hidestore")
	base := res.Row("baseline-gc")
	if hide == nil || base == nil {
		t.Fatal("rows missing")
	}
	if hide.ChunksScanned != 0 {
		t.Fatalf("hidestore scanned %d chunks, want 0", hide.ChunksScanned)
	}
	if hide.ContainersRewritten != 0 {
		t.Fatalf("hidestore rewrote %d containers, want 0", hide.ContainersRewritten)
	}
	if base.ChunksScanned == 0 {
		t.Fatal("baseline GC should scan references")
	}
	if hide.VersionsDeleted != 4 || base.VersionsDeleted != 4 {
		t.Fatalf("deleted %d/%d versions, want 4/4", hide.VersionsDeleted, base.VersionsDeleted)
	}
	if hide.BytesReclaimed == 0 || base.BytesReclaimed == 0 {
		t.Fatal("both schemes should reclaim space")
	}
	if !strings.Contains(res.Render(), "deletion cost") {
		t.Fatal("render malformed")
	}
}
