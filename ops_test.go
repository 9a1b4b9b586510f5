package hidestore

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hidestore/internal/backup"
	"hidestore/internal/obs"
)

// opsSystem stores a couple of versions and returns the open System.
func opsSystem(t *testing.T) *System {
	sys, _ := opsSystemDir(t)
	return sys
}

func opsSystemDir(t *testing.T) (*System, string) {
	t.Helper()
	dir := t.TempDir()
	sys, err := Open(Config{Dir: dir, ContainerSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range testVersions(t, 3) {
		if _, err := sys.Backup(context.Background(), bytes.NewReader(v)); err != nil {
			t.Fatal(err)
		}
	}
	return sys, dir
}

func TestHealthHandler(t *testing.T) {
	sys := opsSystem(t)
	rec := httptest.NewRecorder()
	sys.HealthHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200; body: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("body not JSON: %v\n%s", err, rec.Body)
	}
	if !h.OK() || h.Status != "ok" {
		t.Errorf("healthy system reported %+v", h)
	}
	if h.Versions != 3 || h.Containers == 0 {
		t.Errorf("health shape wrong: %+v", h)
	}
}

// TestHealthHandlerDegraded rots every container image on disk, runs
// one scrub pass, and proves the damage surfaces through /healthz as a
// 503 with the scrub findings in the body — the probe contract the ops
// server documents.
func TestHealthHandlerDegraded(t *testing.T) {
	sys, dir := opsSystemDir(t)
	if h := sys.Health(); !h.OK() {
		t.Fatalf("fresh system already degraded: %+v", h)
	}

	images, err := filepath.Glob(filepath.Join(dir, "containers", "c_*.ctn"))
	if err != nil || len(images) == 0 {
		t.Fatalf("no container images found (%v): %v", images, err)
	}
	for _, img := range images {
		data, err := os.ReadFile(img)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(img, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	pass := make(chan struct{})
	var once sync.Once
	stop, err := sys.StartScrub(ScrubOptions{
		ThrottleMBps: -1, // unthrottled: the pass must finish promptly
		OnStep: func(rep backup.ScrubStepReport, _ error) {
			if rep.PassComplete {
				once.Do(func() { close(pass) })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-pass:
	case <-time.After(30 * time.Second):
		t.Fatal("scrub pass did not complete")
	}
	stop()

	rec := httptest.NewRecorder()
	sys.HealthHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded status %d, want 503; body: %s", rec.Code, rec.Body)
	}
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.OK() || len(h.Degraded) == 0 {
		t.Errorf("degraded body wrong: %+v", h)
	}
	if h.ScrubTotal == 0 || h.ScrubDone == 0 {
		t.Errorf("scrub progress not reported: %+v", h)
	}
}

func TestLayoutHandler(t *testing.T) {
	sys := opsSystem(t)

	// Default: newest version, all policies.
	rec := httptest.NewRecorder()
	sys.LayoutHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/layout", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d; body: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	var rep LayoutReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	if rep.Version != 3 {
		t.Errorf("default version %d, want newest (3)", rep.Version)
	}
	if len(rep.Policies) == 0 || rep.UniqueContainers == 0 {
		t.Errorf("report shape wrong: %+v", rep)
	}

	// Explicit version + narrowed policy list.
	rec = httptest.NewRecorder()
	sys.LayoutHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/layout?version=1&policies=faa,", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d; body: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Version != 1 || len(rep.Policies) != 1 || rep.Policies[0].Policy != "faa" {
		t.Errorf("narrowed report wrong: %+v", rep)
	}

	// Errors: malformed version is the client's fault, unknown version
	// is absent data.
	rec = httptest.NewRecorder()
	sys.LayoutHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/layout?version=x", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad version status %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	sys.LayoutHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/layout?version=99", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown version status %d, want 404", rec.Code)
	}
}

// TestOpsEndpointsOnDebugServer mounts the handlers the way the CLI
// does and scrapes them over real HTTP, including a graceful shutdown
// with the scrape in flight.
func TestOpsEndpointsOnDebugServer(t *testing.T) {
	sys := opsSystem(t)
	reg := obs.NewRegistry()
	srv, err := obs.StartDebugServer("127.0.0.1:0", reg,
		obs.WithHandler("/healthz", sys.HealthHandler()),
		obs.WithHandler("/debug/layout", sys.LayoutHandler()),
	)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	get := func(path string) (string, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); cerr != nil {
			t.Errorf("close body: %v", cerr)
		}
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	if body, ct := get("/healthz"); ct != "application/json" || !strings.Contains(body, `"status": "ok"`) {
		t.Errorf("/healthz: ct=%q body=%s", ct, body)
	}
	if body, ct := get("/debug/layout?policies=faa"); ct != "application/json" || !strings.Contains(body, `"cfl"`) {
		t.Errorf("/debug/layout: ct=%q body=%.200s", ct, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with handlers mounted: %v", err)
	}
}

// TestResidentRestoreWhileScrubbing: restores at assembly width 4 and
// read-ahead depth 8 serve the active containers from the engine's
// memory while the online scrubber steps through the same containers on
// its own goroutine. Each step and each restore holds the system lock,
// so no image changes under a restore's read-ahead or assembly workers;
// run under -race.
func TestResidentRestoreWhileScrubbing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // min(GOMAXPROCS, 4) span workers
	versions := testVersions(t, 4)
	sys, err := Open(Config{Dir: t.TempDir(), ContainerSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, v := range versions {
		if _, err := sys.Backup(ctx, bytes.NewReader(v)); err != nil {
			t.Fatal(err)
		}
	}
	var steps atomic.Int64
	stop, err := sys.StartScrub(ScrubOptions{
		ThrottleMBps: -1,
		OnStep: func(rep backup.ScrubStepReport, err error) {
			if err != nil || rep.Corrupt != "" {
				t.Errorf("scrub step: %+v, %v", rep, err)
			}
			steps.Add(1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var resident uint64
	deadline := time.Now().Add(10 * time.Second)
	for round := 0; round < 8 || (steps.Load() < 8 && time.Now().Before(deadline)); round++ {
		v := len(versions) - round%len(versions)
		var buf bytes.Buffer
		rep, err := sys.Restore(ctx, v, &buf)
		if err != nil {
			t.Fatalf("restore v%d: %v", v, err)
		}
		if !bytes.Equal(buf.Bytes(), versions[v-1]) {
			t.Fatalf("v%d restored bytes differ from the original", v)
		}
		resident += rep.ResidentReads
	}
	stop()
	if steps.Load() == 0 {
		t.Error("the scrubber took no step while the restores ran")
	}
	if resident == 0 {
		t.Error("no restore read a resident image")
	}
}
