package main

import "fmt"

// metricDef names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; a test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by; per-layer metrics have none.
	Bound float64
}

// endToEnd is what a user of the system sees. delete time is not here: in
// memory twelve deletes take microseconds and the baseline's mark-and-sweep
// varies 2x from round to round, so it is reported per layer, ungated.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"backup_mbps", "MB/s", "higher", 0.20},
	{"restore_mbps", "MB/s", "higher", 0.25},
	{"restore_speed_factor", "MB/read", "higher", 0.20},
	{"stored_ratio", "ratio", "lower", 0.08},
}

// perLayer comes from the traced pass; the layer is the package name.
var perLayer = []metricDef{
	{Name: "workload.gen_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "chunker.scan_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "chunker.chunks", Unit: "count", Better: "lower"},
	{Name: "chunker.mean_chunk_bytes", Unit: "B", Better: "higher"},
	{Name: "fp.hash_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "core.index_ns_per_chunk", Unit: "ns/chunk", Better: "lower"},
	{Name: "core.index_dup_share", Unit: "ratio", Better: "higher"},
	{Name: "index.ddfs_ns_per_chunk", Unit: "ns/chunk", Better: "lower"},
	{Name: "rewrite.capping_ns_per_chunk", Unit: "ns/chunk", Better: "lower"},
	{Name: "container.pack_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "container.unpack_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "backend.put_ms", Unit: "ms", Better: "lower"},
	{Name: "backend.get_ms", Unit: "ms", Better: "lower"},
	{Name: "backend.delete_ms", Unit: "ms", Better: "lower"},
	{Name: "backend.ops", Unit: "count", Better: "lower"},
	{Name: "backend.write_amplification", Unit: "ratio", Better: "lower"},
	{Name: "recipe.codec_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "restorecache.assemble_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "restorecache.ideal_reads", Unit: "count", Better: "lower"},
	{Name: "core.maintenance_share", Unit: "ratio", Better: "lower"},
	{Name: "layout.read_amplification", Unit: "ratio", Better: "lower"},
	{Name: "engine.allocs_per_chunk", Unit: "count", Better: "lower"},
	{Name: "engine.delete_ms", Unit: "ms", Better: "lower"},
	{Name: "backup.serial_sum_s", Unit: "s", Better: "lower"},
	{Name: "backup.unattributed_pct", Unit: "%", Better: "lower"},
	{Name: "restore.unattributed_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// samples collects one value per round for each metric.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func mbPerS(bytes int64, seconds float64) float64 { return float64(bytes) / mb / seconds }

// endToEndSamples adds the timed rounds' per-round metric values.
func endToEndSamples(s samples, b bench, rounds []roundResult, logical int64) {
	for _, r := range rounds {
		s.add("backup_mbps", mbPerS(logical, r.backupS))
		s.add("restore_mbps", mbPerS(logical*int64(b.sweeps), r.restoreS))
		s.add("restore_speed_factor", float64(r.restored)/mb/float64(r.reads))
		s.add("stored_ratio", float64(r.stored)/float64(r.logical))
	}
}

// sameCounts reports the first exact count on which two rounds disagree.
func sameCounts(a, b roundResult) error {
	for _, c := range []struct {
		name string
		a, b uint64
	}{
		{"chunks", uint64(a.chunks), uint64(b.chunks)},
		{"container reads", a.reads, b.reads},
		{"restored bytes", a.restored, b.restored},
		{"stored bytes", a.stored, b.stored},
		{"logical bytes", a.logical, b.logical},
	} {
		if c.a != c.b {
			return fmt.Errorf("%s differ between rounds: %d vs %d", c.name, c.a, c.b)
		}
	}
	return nil
}

// backupLayers and restoreLayers are the spans whose self times add up to
// the serial cost of a backup or a restore of the chain; the index and
// rewriter rows are those of the workload's own engine.
func backupLayers(b bench) []string {
	names := []string{"chunker.scan", "fp.hash", "container.pack", "backend.put", "recipe.encode"}
	if b.baseline {
		return append(names, "index.ddfs", "rewrite.capping")
	}
	return append(names, "core.index")
}

var restoreLayers = []string{"recipe.decode", "restorecache.assemble", "container.unpack", "backend.get"}

func selfSum(ls map[string]layerStat, names []string) float64 {
	var s float64
	for _, n := range names {
		s += ls[n].SelfS
	}
	return s
}

// meanMS is the mean span duration in milliseconds.
func meanMS(st layerStat) float64 {
	if st.Calls == 0 {
		return 0
	}
	return st.TotalS * 1e3 / float64(st.Calls)
}

// layerSamples adds one layer round's per-layer metric values. engineBackupS
// and engineRestoreS are the engine's median wall times for the same chain
// (restore: one sweep), against which the layer sums are "unattributed".
func layerSamples(s samples, b bench, ls map[string]layerStat, lc layerCounts, engineBackupS, engineRestoreS float64) {
	chunks := float64(lc.chunks)
	s.add("chunker.scan_mbps", mbPerS(lc.logical, ls["chunker.scan"].SelfS))
	s.add("chunker.chunks", chunks)
	s.add("chunker.mean_chunk_bytes", float64(lc.logical)/chunks)
	s.add("fp.hash_mbps", mbPerS(lc.logical, ls["fp.hash"].SelfS))
	s.add("core.index_ns_per_chunk", ls["core.index"].SelfS*1e9/chunks)
	s.add("core.index_dup_share", float64(lc.coreDups)/chunks)
	s.add("index.ddfs_ns_per_chunk", ls["index.ddfs"].SelfS*1e9/chunks)
	s.add("rewrite.capping_ns_per_chunk", ls["rewrite.capping"].SelfS*1e9/chunks)
	s.add("container.pack_mbps", mbPerS(lc.packed, ls["container.pack"].SelfS))
	s.add("container.unpack_mbps", mbPerS(lc.unpacked, ls["container.unpack"].SelfS))
	s.add("backend.put_ms", meanMS(ls["backend.put"]))
	s.add("backend.get_ms", meanMS(ls["backend.get"]))
	s.add("backend.delete_ms", meanMS(ls["backend.delete"]))
	s.add("backend.ops", float64(ls["backend.put"].Calls+ls["backend.get"].Calls+ls["backend.delete"].Calls))
	s.add("backend.write_amplification", float64(lc.written)/float64(lc.logical))
	s.add("recipe.codec_mbps", mbPerS(2*lc.recipeBytes, ls["recipe.encode"].SelfS+ls["recipe.decode"].SelfS))
	s.add("restorecache.assemble_mbps", mbPerS(lc.logical, ls["restorecache.assemble"].SelfS))
	s.add("restorecache.ideal_reads", float64(lc.idealReads))
	serial := selfSum(ls, backupLayers(b))
	s.add("backup.serial_sum_s", serial)
	s.add("backup.unattributed_pct", (engineBackupS-serial)/engineBackupS*100)
	s.add("restore.unattributed_pct", (engineRestoreS-selfSum(ls, restoreLayers))/engineRestoreS*100)
}

// engineSamples adds the rows that come from System's public reports, one
// value per traced engine round, and the tracing overhead per pair.
func engineSamples(s samples, logical int64, untraced, traced []roundResult, idealReads uint64) {
	for i, r := range traced {
		s.add("core.maintenance_share", r.maintenanceS/r.backupS)
		s.add("layout.read_amplification", float64(r.reads)/float64(idealReads))
		s.add("engine.allocs_per_chunk", float64(r.mallocs)/float64(r.chunks))
		s.add("engine.delete_ms", r.deleteS*1e3)
		plain := mbPerS(logical, untraced[i].backupS)
		s.add("trace.overhead_pct", (plain-mbPerS(logical, r.backupS))/plain*100)
	}
}
