package hidestore

import (
	"bytes"
	"context"
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
// observe the same reads at the same layer, by construction.
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
	var statsReads, recipeReads uint64
	for i := range versions {
		rep, err := sys.Restore(ctx, i+1, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		statsReads += rep.ContainerReads
		recipeReads += rep.RecipesRead
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
	// The restore spans themselves must be present too.
	if got := sum.SpanCount("restore"); got != len(versions) {
		t.Errorf("restore span count %d, want %d", got, len(versions))
	}
	// And the exposition over the same registry must be well-formed.
	if err := obs.ValidateExposition(strings.NewReader(reg.PrometheusText())); err != nil {
		t.Errorf("exposition malformed after run: %v", err)
	}
}

// TestObservabilityIdentityWithoutPrefetch re-runs the identity with
// read-ahead disabled: prefetch must never change which reads the
// plane observes (§5.3).
func TestObservabilityIdentityWithoutPrefetch(t *testing.T) {
	versions := testVersions(t, 3)
	run := func(prefetch int) (uint64, uint64) {
		reg := obs.NewRegistry()
		sys, err := Open(Config{Metrics: reg, PrefetchDepth: prefetch})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var statsReads uint64
		for _, v := range versions {
			if _, err := sys.Backup(ctx, bytes.NewReader(v)); err != nil {
				t.Fatal(err)
			}
		}
		for i := range versions {
			rep, err := sys.Restore(ctx, i+1, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			statsReads += rep.ContainerReads
		}
		counter := uint64(reg.Snapshot().Counters["hidestore_restore_container_reads_total"].Value)
		return statsReads, counter
	}
	statsOn, counterOn := run(0)    // default read-ahead
	statsOff, counterOff := run(-1) // disabled
	if statsOn != counterOn || statsOff != counterOff {
		t.Errorf("registry disagrees with Stats: on %d/%d, off %d/%d",
			statsOn, counterOn, statsOff, counterOff)
	}
	if statsOn != statsOff {
		t.Errorf("prefetch changed the observed read count: %d with, %d without", statsOn, statsOff)
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
