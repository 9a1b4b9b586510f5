package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"time"
)

const mb = 1 << 20

// compareSink is the restore target: it compares every written byte against
// the materialized source at the write offset. It never fails a Write, so a
// corrupt restore still runs to its end and is then counted as one failed op.
type compareSink struct {
	want     []byte
	off      int
	mismatch bool
}

func (s *compareSink) Write(p []byte) (int, error) {
	end := s.off + len(p)
	if end > len(s.want) || !bytes.Equal(p, s.want[s.off:end]) {
		s.mismatch = true
	}
	s.off = end
	return len(p), nil
}

// ok reports whether exactly the source bytes were written.
func (s *compareSink) ok() bool { return !s.mismatch && s.off == len(s.want) }

// roundResult is what one round measured. Counts are exact and must repeat
// from round to round; times are wall clock.
type roundResult struct {
	backupS, restoreS, deleteS float64
	// maintenanceS sums BackupReport.MaintenanceDuration.
	maintenanceS float64
	chunks       int
	// reads and restored cover one restore sweep.
	reads    uint64
	restored uint64
	// stored and logical are Stats after the last backup, before deletes.
	stored, logical uint64
	// versionMS holds the wall time of every Restore call.
	versionMS []float64
	// mallocs is the heap allocation count of the backup phase; only
	// measured when tr is set, because reading it stops the world.
	mallocs           uint64
	attempted, failed int
}

// runRound is one closed-loop round from a single client goroutine: open a
// fresh store, back up every version in order, restore every version newest
// to oldest into a comparing sink (b.sweeps times), delete the older half
// one call at a time. Failed calls are counted, not fatal; only a store that
// cannot be opened and a cancelled context are errors. With a tracer, each
// call into System is one span under a round.engine root.
func runRound(ctx context.Context, b bench, streams [][]byte, dir string, tr *tracer) (roundResult, error) {
	var res roundResult
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	// Start every round from a collected heap, so one round's garbage is
	// not collected on the next round's clock.
	runtime.GC()
	sys, err := b.open(dir)
	if err != nil {
		return res, fmt.Errorf("open %s: %w", b.name, err)
	}
	fail := func(op string, version int, err error) {
		res.failed++
		fmt.Fprintf(os.Stderr, "%s: %s v%d failed: %v\n", b.name, op, version, err)
	}
	// A cancelled context aborts the run, so that path leaves spans open.
	root := tr.beginRound("engine")

	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	phase := tr.begin("engine.backup")
	start := time.Now()
	for i, data := range streams {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		res.attempted++
		sp := tr.begin("hidestore.Backup")
		rep, err := sys.Backup(ctx, bytes.NewReader(data))
		tr.end(sp, int64(len(data)))
		if err != nil {
			fail("backup", i+1, err)
			continue
		}
		res.chunks += rep.Chunks
		res.maintenanceS += rep.MaintenanceDuration.Seconds()
	}
	res.backupS = time.Since(start).Seconds()
	tr.end(phase, 0)
	if tr != nil {
		runtime.ReadMemStats(&after)
		res.mallocs = after.Mallocs - before.Mallocs
	}
	st := sys.Stats()
	res.stored, res.logical = st.StoredBytes, st.LogicalBytes

	phase = tr.begin("engine.restore")
	start = time.Now()
	for sweep := 0; sweep < b.sweeps; sweep++ {
		for v := len(streams); v >= 1; v-- {
			if err := ctx.Err(); err != nil {
				return res, err
			}
			res.attempted++
			sink := &compareSink{want: streams[v-1]}
			sp := tr.begin("hidestore.Restore")
			t := time.Now()
			rep, err := sys.Restore(ctx, v, sink)
			res.versionMS = append(res.versionMS, float64(time.Since(t))/1e6)
			tr.end(sp, int64(sink.off))
			switch {
			case err != nil:
				fail("restore", v, err)
			case !sink.ok():
				fail("restore", v, fmt.Errorf("restored bytes differ from the source (%d of %d bytes written)", sink.off, len(sink.want)))
			case sweep == 0:
				res.reads += rep.ContainerReads
				res.restored += rep.BytesRestored
			}
		}
	}
	res.restoreS = time.Since(start).Seconds()
	tr.end(phase, 0)

	phase = tr.begin("engine.delete")
	start = time.Now()
	for v := 1; v <= len(streams)/2; v++ {
		res.attempted++
		sp := tr.begin("hidestore.Delete")
		_, err := sys.Delete(v)
		tr.end(sp, 0)
		if err != nil {
			fail("delete", v, err)
		}
	}
	res.deleteS = time.Since(start).Seconds()
	tr.end(phase, 0)
	tr.end(root, 0)
	return res, nil
}
