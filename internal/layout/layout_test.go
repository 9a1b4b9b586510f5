package layout_test

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"hidestore/internal/container"
	"hidestore/internal/core"
	"hidestore/internal/dedup"
	"hidestore/internal/index/ddfs"
	"hidestore/internal/layout"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
	"hidestore/internal/workload"
)

// layoutVersions generates a churned multi-version stream small enough
// to test quickly but large enough to spread across many containers at
// the test's 64 KB capacity.
func layoutVersions(t *testing.T, n int) [][]byte {
	t.Helper()
	g, err := workload.New(workload.Config{
		Name: "layout-test", Versions: n, Files: 8, BlocksPerFile: 20,
		BlockSize: 4096, ModifyRate: 0.10, InsertRate: 0.01,
		DeleteRate: 0.005, FileChurn: 0.03, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for g.HasNext() {
		r, err := g.NextVersion()
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

const testCapacity = 64 << 10

// TestAnalyzeMatchesRestoreExactlyCore pins the tentpole invariant on
// the HiDeStore engine: for every cache policy, the analyzer's
// simulated container-read count equals a real restore's
// Stats.ContainerReads exactly. The estimate replays the same resolved
// reference stream through the same policy implementations, so this is
// an identity, not a tolerance. Analysis runs first — it must not
// mutate the store (Restore's recipe flattening does), and old
// versions exercise the read-only forward-pointer resolution.
func TestAnalyzeMatchesRestoreExactlyCore(t *testing.T) {
	versions := layoutVersions(t, 4)
	ctx := context.Background()
	for _, policy := range layout.DefaultPolicies {
		rc, err := restorecache.New(policy)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.New(core.Config{
			Store:             container.NewMemStore(),
			Recipes:           recipe.NewMemStore(),
			ContainerCapacity: testCapacity,
			RestoreCache:      rc,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range versions {
			if _, err := e.Backup(ctx, bytes.NewReader(v)); err != nil {
				t.Fatal(err)
			}
		}
		// Analyze every version before any restore mutates recipes.
		reports := make(map[int]*layout.Report)
		for v := 1; v <= len(versions); v++ {
			rep, err := e.AnalyzeLayout(ctx, v, []string{policy})
			if err != nil {
				t.Fatalf("%s: analyze v%d: %v", policy, v, err)
			}
			reports[v] = rep
		}
		for v := 1; v <= len(versions); v++ {
			rep := reports[v]
			real, err := e.Restore(ctx, v, io.Discard)
			if err != nil {
				t.Fatalf("%s: restore v%d: %v", policy, v, err)
			}
			est := rep.Policies[0]
			if est.ContainerReads != real.Stats.ContainerReads {
				t.Errorf("%s v%d: simulated %d container reads, real restore %d",
					policy, v, est.ContainerReads, real.Stats.ContainerReads)
			}
			if est.SpeedFactor != real.Stats.SpeedFactor() {
				t.Errorf("%s v%d: simulated speed factor %.4f, real %.4f",
					policy, v, est.SpeedFactor, real.Stats.SpeedFactor())
			}
			if rep.LogicalBytes != real.Stats.BytesRestored {
				t.Errorf("%s v%d: analyzer logical bytes %d, restored %d",
					policy, v, rep.LogicalBytes, real.Stats.BytesRestored)
			}
			if est.ContainerReads < 2 {
				t.Fatalf("%s v%d: degenerate layout (%d reads) — capacity too large for the workload",
					policy, v, est.ContainerReads)
			}
		}
	}
}

// TestAnalyzeMatchesRestoreExactlyDedup pins the same identity on the
// baseline engine, whose recipes carry final container IDs directly.
func TestAnalyzeMatchesRestoreExactlyDedup(t *testing.T) {
	versions := layoutVersions(t, 3)
	ctx := context.Background()
	for _, policy := range layout.DefaultPolicies {
		rc, err := restorecache.New(policy)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := ddfs.New(ddfs.Options{CacheContainers: 4})
		if err != nil {
			t.Fatal(err)
		}
		e, err := dedup.New(dedup.Config{
			Index:             ix,
			Store:             container.NewMemStore(),
			Recipes:           recipe.NewMemStore(),
			ContainerCapacity: testCapacity,
			RestoreCache:      rc,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range versions {
			if _, err := e.Backup(ctx, bytes.NewReader(v)); err != nil {
				t.Fatal(err)
			}
		}
		for v := 1; v <= len(versions); v++ {
			rep, err := e.AnalyzeLayout(ctx, v, []string{policy})
			if err != nil {
				t.Fatalf("%s: analyze v%d: %v", policy, v, err)
			}
			real, err := e.Restore(ctx, v, io.Discard)
			if err != nil {
				t.Fatalf("%s: restore v%d: %v", policy, v, err)
			}
			if got, want := rep.Policies[0].ContainerReads, real.Stats.ContainerReads; got != want {
				t.Errorf("%s v%d: simulated %d container reads, real restore %d", policy, v, got, want)
			}
		}
	}
}

// TestAnalyzeReportShape checks the fragmentation metrics themselves:
// bounds, internal consistency, and the rendered output.
func TestAnalyzeReportShape(t *testing.T) {
	versions := layoutVersions(t, 3)
	ctx := context.Background()
	e, err := core.New(core.Config{
		Store:             container.NewMemStore(),
		Recipes:           recipe.NewMemStore(),
		ContainerCapacity: testCapacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range versions {
		if _, err := e.Backup(ctx, bytes.NewReader(v)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := e.AnalyzeLayout(ctx, len(versions), nil) // nil = all policies
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chunks == 0 || rep.LogicalBytes == 0 {
		t.Fatal("empty analysis of a non-empty version")
	}
	if rep.UniqueContainers < 2 {
		t.Fatalf("degenerate: %d unique containers", rep.UniqueContainers)
	}
	wantOptimal := int((rep.LogicalBytes + testCapacity - 1) / testCapacity)
	if rep.OptimalContainers != wantOptimal {
		t.Errorf("optimal containers %d, want %d", rep.OptimalContainers, wantOptimal)
	}
	if rep.CFL <= 0 {
		t.Errorf("CFL %.4f, want > 0", rep.CFL)
	}
	if rep.Utilization <= 0 || rep.Utilization > 1 {
		t.Errorf("utilization %.4f outside (0, 1]", rep.Utilization)
	}
	if rep.ReferencedBytes == 0 || rep.ReferencedBytes > rep.ContainerBytes {
		t.Errorf("referenced bytes %d inconsistent with container bytes %d",
			rep.ReferencedBytes, rep.ContainerBytes)
	}
	if rep.ContainersPerMB <= 0 {
		t.Errorf("containers/MB %.4f, want > 0", rep.ContainersPerMB)
	}
	if len(rep.Policies) != len(layout.DefaultPolicies) {
		t.Fatalf("got %d policy estimates, want %d", len(rep.Policies), len(layout.DefaultPolicies))
	}
	// OPT is clairvoyant: no policy can read fewer containers.
	var opt uint64
	for _, p := range rep.Policies {
		if p.Policy == "opt" {
			opt = p.ContainerReads
		}
	}
	for _, p := range rep.Policies {
		if p.ContainerReads < opt {
			t.Errorf("%s reads %d beat the clairvoyant bound %d", p.Policy, p.ContainerReads, opt)
		}
	}
	out := rep.Render()
	for _, want := range []string{"CFL", "utilization", "alacc", "opt", "speed factor"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestAnalyzeRejectsUnresolvedEntries: the analyzer is strict about its
// precondition — engines resolve recipes before calling it.
func TestAnalyzeRejectsUnresolvedEntries(t *testing.T) {
	entries := []recipe.Entry{{Size: 10, CID: 0}}
	_, err := layout.Analyze(context.Background(), 1, entries,
		restorecache.StoreFetcher(container.NewMemStore()), 0, nil)
	if err == nil || !strings.Contains(err.Error(), "unresolved") {
		t.Fatalf("want unresolved-entry error, got %v", err)
	}
}

// TestAnalyzeUnknownPolicy surfaces the restorecache factory error.
func TestAnalyzeUnknownPolicy(t *testing.T) {
	_, err := layout.Analyze(context.Background(), 1, nil,
		restorecache.StoreFetcher(container.NewMemStore()), 0, []string{"nope"})
	if err == nil {
		t.Fatal("unknown policy must fail")
	}
}
