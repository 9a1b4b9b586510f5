package hidestore

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"sync"
	"testing"

	"hidestore/internal/backup"
	"hidestore/internal/container"
	"hidestore/internal/core"
	"hidestore/internal/dedup"
	"hidestore/internal/index/ddfs"
	"hidestore/internal/obs"
	"hidestore/internal/recipe"
)

// TestParallelRestoreIdentity pins the parallel restore mode's
// system-level contract: on more than one CPU every version restores
// byte-identically to the serial (one-CPU) system, the per-restore
// accounting (ContainerReads, BytesRestored) is unchanged, and the
// observability identity still holds — trace container.fetch spans ==
// Stats reads == the registry counter — because counting stays at the
// single policy-request layer no matter how many workers copy chunks.
func TestParallelRestoreIdentity(t *testing.T) {
	versions := testVersions(t, 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(procs int) ([][]byte, []RestoreReport, uint64, uint64) {
		runtime.GOMAXPROCS(procs)
		var traceBuf bytes.Buffer
		reg := obs.NewRegistry()
		tracer := obs.NewTracer(&traceBuf)
		sys, err := Open(Config{Metrics: reg, Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, v := range versions {
			if _, err := sys.Backup(ctx, bytes.NewReader(v)); err != nil {
				t.Fatal(err)
			}
		}
		var outs [][]byte
		var reps []RestoreReport
		for i := range versions {
			var buf bytes.Buffer
			rep, err := sys.Restore(ctx, i+1, &buf)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, buf.Bytes())
			reps = append(reps, rep)
		}
		if err := tracer.Close(); err != nil {
			t.Fatal(err)
		}
		sum, err := obs.SummarizeTrace(bytes.NewReader(traceBuf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		spans := uint64(sum.SpanCount("container.fetch"))
		counter := uint64(reg.Snapshot().Counters["hidestore_restore_container_reads_total"].Value)
		return outs, reps, spans, counter
	}

	serialOut, serialReps, _, _ := run(1)
	for _, procs := range []int{2, 8} {
		parOut, parReps, spans, counter := run(procs)
		var statsReads uint64
		for i := range versions {
			if !bytes.Equal(parOut[i], serialOut[i]) {
				t.Fatalf("procs=%d: version %d differs from serial restore (%d vs %d bytes)",
					procs, i+1, len(parOut[i]), len(serialOut[i]))
			}
			if !bytes.Equal(parOut[i], versions[i]) {
				t.Fatalf("procs=%d: version %d differs from the backed-up stream", procs, i+1)
			}
			if parReps[i].ContainerReads != serialReps[i].ContainerReads {
				t.Fatalf("procs=%d: version %d ContainerReads = %d, serial = %d",
					procs, i+1, parReps[i].ContainerReads, serialReps[i].ContainerReads)
			}
			statsReads += parReps[i].ContainerReads
		}
		if spans != statsReads || counter != statsReads {
			t.Errorf("procs=%d: accounting identity broken: %d spans, %d Stats reads, %d registry reads",
				procs, spans, statsReads, counter)
		}
	}
}

// TestMetricsScrapeDuringParallelRestore re-runs the scrape-under-load
// race check with the parallel restore mode on: the assembler's worker
// pool, the reorder writer and the prefetch pool must all be
// data-race free against concurrent registry scrapes (the race tier
// runs this under -race).
func TestMetricsScrapeDuringParallelRestore(t *testing.T) {
	versions := testVersions(t, 3)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	reg := obs.NewRegistry()
	sys, err := Open(Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, v := range versions {
		if _, err := sys.Backup(ctx, bytes.NewReader(v)); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := obs.StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("debug server shutdown: %v", err)
		}
	}()
	url := "http://" + srv.Addr() + "/metrics"

	done := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					continue
				}
				body, rerr := io.ReadAll(resp.Body)
				if cerr := resp.Body.Close(); cerr != nil || rerr != nil {
					continue
				}
				if err := obs.ValidateExposition(bytes.NewReader(body)); err != nil {
					t.Errorf("mid-restore scrape malformed: %v", err)
					return
				}
			}
		}()
	}
	for r := 0; r < 5; r++ {
		for i := range versions {
			var buf bytes.Buffer
			if _, err := sys.Restore(ctx, i+1, &buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), versions[i]) {
				t.Fatalf("round %d: version %d corrupted under scrape load", r, i+1)
			}
		}
	}
	close(done)
	wg.Wait()

	busy := reg.Snapshot().Gauges["hidestore_restore_assembly_workers_busy"].Value
	if busy != 0 {
		t.Errorf("assembly worker gauge = %d after all restores finished, want 0", busy)
	}
	if spans := reg.Snapshot().Counters["hidestore_restore_assembly_spans_total"].Value; spans == 0 {
		t.Error("parallel restores emitted zero assembly spans")
	}
}

// errAfterReader fails with a read error after n bytes — a backup
// source dying mid-stream.
type errAfterReader struct {
	n   int
	err error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, r.err
	}
	if len(p) > r.n {
		p = p[:r.n]
	}
	for i := range p {
		p[i] = byte(i)
	}
	r.n -= len(p)
	return len(p), nil
}

// failPutStore is a container store whose writes all fail — a dead
// backend under a running backup.
type failPutStore struct{ container.Store }

func (failPutStore) Put(*container.Container) error { return errors.New("store died") }

// TestTraceSpansBalancedOnFailure is the span-leak validator: every
// operation that fails must still End its span (a leaked span emits no
// trace record at all, so the tracer's open-span balance is the only
// reliable detector). A failing source, a failing store and failed
// restores — serial and parallel, on both engines, which share one ingest
// skeleton and one restore driver — must leave the balance at zero and a
// well-formed tree: failures are records with an error attr, stage
// records hang off their backup, and their chunk and byte sums are the
// reports'.
func TestTraceSpansBalancedOnFailure(t *testing.T) {
	versions := testVersions(t, 2)
	srcErr := errors.New("source died")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // restores assemble in parallel

	check := func(name string, open func(Config) (*System, error), overStore func(container.Store, *obs.Tracer) (backup.Engine, error)) {
		var buf bytes.Buffer
		tracer := obs.NewTracer(&buf)
		sys, err := open(Config{Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var chunks, logical int64
		for _, v := range versions {
			rep, err := sys.Backup(ctx, bytes.NewReader(v))
			if err != nil {
				t.Fatalf("%s: backup: %v", name, err)
			}
			chunks += int64(rep.Chunks)
			logical += int64(rep.LogicalBytes)
		}
		// Failed backup: the source errors mid-stream.
		if _, err := sys.Backup(ctx, &errAfterReader{n: 4 << 10, err: srcErr}); err == nil {
			t.Fatalf("%s: mid-stream source error did not fail the backup", name)
		}
		// Failed restores: a version that does not exist, serial and
		// after successful ones.
		if _, err := sys.Restore(ctx, 99, io.Discard); err == nil {
			t.Fatalf("%s: restoring a missing version succeeded", name)
		}
		for i := range versions {
			if _, err := sys.Restore(ctx, i+1, io.Discard); err != nil {
				t.Fatalf("%s: restore: %v", name, err)
			}
		}
		// Failed backup: the store refuses every container.
		e, err := overStore(failPutStore{container.NewMemStore()}, tracer)
		if err != nil {
			t.Fatal(err)
		}
		dead := &System{engine: e}
		if _, err := dead.Backup(ctx, bytes.NewReader(versions[0])); err == nil {
			t.Fatalf("%s: backup over a dead store succeeded", name)
		}
		if h := dead.Health(); h.OK() || len(h.Degraded) == 0 {
			t.Errorf("%s: Health after a failed backup = %+v, want degraded with the sticky failure", name, h)
		}
		if open := tracer.OpenSpans(); open != 0 {
			t.Errorf("%s: %d spans leaked across failed operations", name, open)
		}
		if err := tracer.Close(); err != nil {
			t.Fatal(err)
		}

		// Every balanced span must actually be in the trace: failed ops
		// emit records too (with an error attribute), they don't vanish.
		byName := make(map[string][]obs.TraceRecord)
		spanName := make(map[uint64]string)
		for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
			var rec obs.TraceRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("%s: trace line %q: %v", name, line, err)
			}
			byName[rec.Name] = append(byName[rec.Name], rec)
			spanName[rec.ID] = rec.Name
		}
		failed := func(recs []obs.TraceRecord) (n int) {
			for _, rec := range recs {
				if rec.Attrs["error"] == 1 {
					n++
				}
			}
			return n
		}
		if got, want := len(byName["backup"]), len(versions)+2; got != want || failed(byName["backup"]) != 2 {
			t.Errorf("%s: %d backup spans, %d with an error attr; want %d and 2 (failures emit spans too)",
				name, got, failed(byName["backup"]), want)
		}
		if got, want := len(byName["restore"]), len(versions)+1; got != want || failed(byName["restore"]) != 1 {
			t.Errorf("%s: %d restore spans, %d with an error attr; want %d and 1", name, got, failed(byName["restore"]), want)
		}
		for stage, parent := range map[string]string{
			"stage.chunking": "backup", "stage.fingerprint": "backup", "recipe.read": "restore",
		} {
			recs := byName[stage]
			if len(recs) != len(versions) {
				t.Errorf("%s: %d %s records, want one per successful operation (%d)", name, len(recs), stage, len(versions))
			}
			var c, b int64
			for _, rec := range recs {
				if spanName[rec.Parent] != parent {
					t.Errorf("%s: a %s record hangs off %q, want its %s span", name, stage, spanName[rec.Parent], parent)
				}
				c += rec.Attrs["chunks"]
				b += rec.Attrs["bytes"]
			}
			if parent == "backup" && (c != chunks || b != logical) {
				t.Errorf("%s: %s accounts for %d chunks / %d bytes, the reports for %d / %d", name, stage, c, b, chunks, logical)
			}
		}
	}

	check("hidestore", Open, func(s container.Store, tr *obs.Tracer) (backup.Engine, error) {
		return core.New(core.Config{Store: s, Recipes: recipe.NewMemStore(), Tracer: tr})
	})
	check("baseline", func(c Config) (*System, error) { return OpenBaseline(BaselineConfig{Config: c}) },
		func(s container.Store, tr *obs.Tracer) (backup.Engine, error) {
			ix, err := ddfs.New(ddfs.Options{})
			if err != nil {
				return nil, err
			}
			return dedup.New(dedup.Config{Index: ix, Store: s, Recipes: recipe.NewMemStore(), Tracer: tr})
		})
}
