package hidestore

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"hidestore/internal/obs"
)

// TestObservabilityAccountingIdentity pins the plane's core invariant:
// over a multi-version backup/restore run with tracing and metrics on,
// the trace's container.fetch span count, the per-run
// restorecache.Stats totals (surfaced as RestoreReport.ContainerReads)
// and the registry's cumulative counter are all equal — the three views
// observe the same reads at the same layer, by construction. The reads
// served from resident active images are one such subset, counted once
// too: report, registry and the restore spans' attribute agree.
func TestObservabilityAccountingIdentity(t *testing.T) {
	versions := testVersions(t, 4)
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
	var statsReads, recipeReads, residentReads uint64
	for i := range versions {
		rep, err := sys.Restore(ctx, i+1, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		statsReads += rep.ContainerReads
		recipeReads += rep.RecipesRead
		residentReads += rep.ResidentReads
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	sum, err := obs.SummarizeTrace(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	spanReads := uint64(sum.SpanCount("container.fetch"))
	counterReads := uint64(reg.Snapshot().Counters["hidestore_restore_container_reads_total"].Value)

	if spanReads != statsReads || counterReads != statsReads {
		t.Errorf("accounting identity broken: %d trace spans, %d Stats reads, %d registry reads",
			spanReads, statsReads, counterReads)
	}
	if statsReads == 0 {
		t.Fatal("test degenerate: no container reads observed")
	}
	// Recipe reads are counted once too: report and registry agree, and the
	// old versions' forward pointers cost some beyond each version's own.
	if counter := uint64(reg.Snapshot().Counters["hidestore_restore_recipe_reads_total"].Value); counter != recipeReads {
		t.Errorf("recipe reads: %d in the reports, %d in the registry", recipeReads, counter)
	}
	if recipeReads <= uint64(len(versions)) {
		t.Fatalf("test degenerate: %d recipe reads for %d restores, no forward pointer followed", recipeReads, len(versions))
	}
	// Resident reads: report, registry and span attribute agree, and are
	// some but not more than all of the container reads.
	var spanResident uint64
	for _, line := range bytes.Split(traceBuf.Bytes(), []byte("\n")) {
		var rec obs.TraceRecord
		if json.Unmarshal(line, &rec) == nil && rec.Name == "restore" {
			spanResident += uint64(rec.Attrs["resident_reads"])
		}
	}
	counterResident := uint64(reg.Snapshot().Counters["hidestore_restore_resident_reads_total"].Value)
	if counterResident != residentReads || spanResident != residentReads {
		t.Errorf("resident reads: %d in the reports, %d in the registry, %d on the restore spans",
			residentReads, counterResident, spanResident)
	}
	if residentReads == 0 || residentReads > statsReads {
		t.Errorf("%d resident reads of %d container reads", residentReads, statsReads)
	}
	// The restore spans themselves must be present too.
	if got := sum.SpanCount("restore"); got != len(versions) {
		t.Errorf("restore span count %d, want %d", got, len(versions))
	}
	// And the exposition over the same registry must be well-formed.
	if err := obs.ValidateExposition(strings.NewReader(reg.PrometheusText())); err != nil {
		t.Errorf("exposition malformed after run: %v", err)
	}
}

// TestMetricsScrapeDuringRestore hammers restores while concurrently
// polling the live /metrics endpoint — the race tier (go test -race)
// proves the registry's atomics and the engines' shared counters are
// data-race free under scrape load.
func TestMetricsScrapeDuringRestore(t *testing.T) {
	versions := testVersions(t, 3)
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
	const scrapers = 4
	for s := 0; s < scrapers; s++ {
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
					continue // server teardown race at test end
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
	const rounds = 5
	for r := 0; r < rounds; r++ {
		for i := range versions {
			if _, err := sys.Restore(ctx, i+1, io.Discard); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()

	restores := reg.Snapshot().Counters["hidestore_restore_total"].Value
	if want := int64(rounds * len(versions)); restores != want {
		t.Errorf("restore counter %d, want %d", restores, want)
	}
}

// TestStageChunkAccountingWithLanes pins the stage-accounting identity
// under the concurrency every backup runs with — four fingerprinting
// lanes and the 16-shard fingerprint cache: each per-version stage
// record (stage.chunking, stage.fingerprint, stage.index_lookup) must
// account for exactly the chunks the backup reports — lane and shard
// contributions are summed at snapshot, never double-counted or dropped.
func TestStageChunkAccountingWithLanes(t *testing.T) {
	versions := testVersions(t, 3)
	var traceBuf bytes.Buffer
	tracer := obs.NewTracer(&traceBuf)
	sys, err := Open(Config{Metrics: obs.NewRegistry(), Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var chunks int64
	for _, v := range versions {
		rep, err := sys.Backup(ctx, bytes.NewReader(v))
		if err != nil {
			t.Fatal(err)
		}
		chunks += int64(rep.Chunks)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	if chunks == 0 {
		t.Fatal("test degenerate: no chunks backed up")
	}

	sum, err := obs.SummarizeTrace(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]bool{"stage.chunking": false, "stage.fingerprint": false, "stage.index_lookup": false}
	for _, st := range sum.Stages {
		if _, ok := stages[st.Name]; !ok {
			continue
		}
		stages[st.Name] = true
		if st.Chunks != chunks {
			t.Errorf("%s accounts for %d chunks, backups reported %d", st.Name, st.Chunks, chunks)
		}
		if st.Count != len(versions) {
			t.Errorf("%s has %d records, want one per version (%d)", st.Name, st.Count, len(versions))
		}
		if st.Total <= 0 {
			t.Errorf("%s reports no time", st.Name)
		}
	}
	for name, seen := range stages {
		if !seen {
			t.Errorf("trace lacks %s records", name)
		}
	}
}

// TestLanesShardsBitIdenticalBackups pins end-to-end transparency to
// how the source is read: a system fed each version as one reader and
// one fed it as four lanes of reads (no read crossing a quarter of the
// version) must report identical chunk/byte accounting and restore
// byte-identical streams. Both run the same sharded fingerprint cache.
func TestLanesShardsBitIdenticalBackups(t *testing.T) {
	versions := testVersions(t, 3)
	type result struct {
		chunks   []int
		stored   []uint64
		restored [][]byte
	}
	run := func(lanes int) result {
		sys, err := Open(Config{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var res result
		for _, v := range versions {
			seg := (len(v) + lanes - 1) / lanes
			var rs []io.Reader
			for off := 0; off < len(v); off += seg {
				rs = append(rs, bytes.NewReader(v[off:min(off+seg, len(v))]))
			}
			rep, err := sys.Backup(ctx, io.MultiReader(rs...))
			if err != nil {
				t.Fatal(err)
			}
			res.chunks = append(res.chunks, rep.Chunks)
			res.stored = append(res.stored, rep.StoredBytes)
		}
		for i := range versions {
			var out bytes.Buffer
			if _, err := sys.Restore(ctx, i+1, &out); err != nil {
				t.Fatal(err)
			}
			res.restored = append(res.restored, out.Bytes())
		}
		return res
	}
	seq := run(1)
	par := run(4)
	for i := range versions {
		if seq.chunks[i] != par.chunks[i] || seq.stored[i] != par.stored[i] {
			t.Errorf("v%d accounting diverged: one reader %d chunks/%d stored, four lanes %d/%d",
				i+1, seq.chunks[i], seq.stored[i], par.chunks[i], par.stored[i])
		}
		if !bytes.Equal(seq.restored[i], par.restored[i]) {
			t.Errorf("v%d restore bytes diverged between the one-reader and four-lane systems", i+1)
		}
		if !bytes.Equal(par.restored[i], versions[i]) {
			t.Errorf("v%d four-lane restore does not match the original", i+1)
		}
	}
}
