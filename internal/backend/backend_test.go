package backend

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"hidestore/internal/durable"
	"hidestore/internal/obs"
)

// backendsUnderTest builds every Backend configuration the blob-level
// conformance tests run against, including the full composed stack.
func backendsUnderTest(t *testing.T) map[string]Backend {
	t.Helper()
	local, err := NewLocal(filepath.Join(t.TempDir(), "local"))
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	stackDir := t.TempDir()
	stackBase, err := NewLocal(filepath.Join(stackDir, "remote"))
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	stack, _, err := NewStack(stackBase, StackOptions{
		Sim: SimOptions{
			FailEveryN: 5, // deterministic transient faults, absorbed by retry
			Seed:       42,
		},
		Retry:      RetryOptions{MinDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond},
		RateBps:    1 << 30,
		CacheDir:   filepath.Join(stackDir, "cache"),
		CacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatalf("NewStack: %v", err)
	}
	return map[string]Backend{
		"mem":   NewMem(),
		"local": local,
		"stack": stack,
	}
}

func TestBackendConformance(t *testing.T) {
	for name, b := range backendsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			if _, err := b.Get(ctx, "nope"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
			}
			if err := b.Delete(ctx, "nope"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Delete(missing) = %v, want ErrNotFound", err)
			}
			if ok, err := b.Has(ctx, "nope"); err != nil || ok {
				t.Fatalf("Has(missing) = %v, %v; want false, nil", ok, err)
			}

			if err := b.Put(ctx, "a_1.bin", []byte("alpha")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if err := b.Put(ctx, "a_2.bin", []byte("beta")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			if err := b.Put(ctx, "b_1.bin", []byte("gamma")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			got, err := b.Get(ctx, "a_1.bin")
			if err != nil || string(got) != "alpha" {
				t.Fatalf("Get = %q, %v; want alpha", got, err)
			}

			// Overwrite replaces content.
			if err := b.Put(ctx, "a_1.bin", []byte("alpha2")); err != nil {
				t.Fatalf("Put overwrite: %v", err)
			}
			got, err = b.Get(ctx, "a_1.bin")
			if err != nil || string(got) != "alpha2" {
				t.Fatalf("Get after overwrite = %q, %v; want alpha2", got, err)
			}

			names, err := b.List(ctx, "a_")
			if err != nil {
				t.Fatalf("List: %v", err)
			}
			if want := []string{"a_1.bin", "a_2.bin"}; !reflect.DeepEqual(names, want) {
				t.Fatalf("List(a_) = %v, want %v", names, want)
			}

			if err := b.Delete(ctx, "a_1.bin"); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if ok, _ := b.Has(ctx, "a_1.bin"); ok {
				t.Fatal("Has after delete = true")
			}
			if _, err := b.Get(ctx, "a_1.bin"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after delete = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestBackendCancelledContext(t *testing.T) {
	for name, b := range backendsUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := b.Put(ctx, "x", []byte("y")); !errors.Is(err, context.Canceled) {
				t.Fatalf("Put(cancelled) = %v, want context.Canceled", err)
			}
			if _, err := b.Get(ctx, "x"); !errors.Is(err, context.Canceled) {
				t.Fatalf("Get(cancelled) = %v, want context.Canceled", err)
			}
		})
	}
}

func TestLocalNameEscapesRejected(t *testing.T) {
	l, err := NewLocal(t.TempDir())
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	ctx := context.Background()
	for _, name := range []string{"", "../evil", "/abs", "a/../../evil"} {
		if err := l.Put(ctx, name, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted, want error", name)
		}
	}
	// Subdirectory names are legitimate (quarantine/...).
	if err := l.Put(ctx, "quarantine/c_1.ctn", []byte("x")); err != nil {
		t.Fatalf("Put(quarantine/c_1.ctn): %v", err)
	}
	names, err := l.List(ctx, "quarantine/")
	if err != nil || len(names) != 1 || names[0] != "quarantine/c_1.ctn" {
		t.Fatalf("List = %v, %v", names, err)
	}
}

// TestLocalSymlinkedRoot: a root that is a symbolic link to a directory
// lists and sweeps the directory's tree, not an empty one.
func TestLocalSymlinkedRoot(t *testing.T) {
	dir := t.TempDir()
	target, link := filepath.Join(dir, "target"), filepath.Join(dir, "link")
	l, err := NewLocal(target)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := l.Put(ctx, "c_1.ctn", []byte("x")); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(target, durable.TempPrefix+"stale")
	if err := os.WriteFile(stale, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(target, link); err != nil {
		t.Fatal(err)
	}
	viaLink, err := NewLocal(link)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale temp under a symlinked root survived the open: %v", err)
	}
	if names, err := viaLink.List(ctx, ""); err != nil || len(names) != 1 || names[0] != "c_1.ctn" {
		t.Fatalf("List through a symlinked root = %v, %v; want [c_1.ctn]", names, err)
	}
}

func TestLocalSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "quarantine")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{
		filepath.Join(dir, durable.TempPrefix+"stale1"),
		filepath.Join(sub, durable.TempPrefix+"stale2"),
	} {
		if err := os.WriteFile(p, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewLocal(dir); err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	for _, p := range []string{
		filepath.Join(dir, durable.TempPrefix+"stale1"),
		filepath.Join(sub, durable.TempPrefix+"stale2"),
	} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("stale temp %s survived reopen", p)
		}
	}
}

func TestRemoteSimDeterminism(t *testing.T) {
	run := func() SimStats {
		sim := NewRemoteSim(NewMem(), SimOptions{ErrRate: 0.3, Seed: 7})
		ctx := context.Background()
		for i := 0; i < 50; i++ {
			//hidelint:ignore discarded-error fault injection makes failures expected; the stats are the assertion
			_ = sim.Put(ctx, fmt.Sprintf("blob%d", i), []byte("payload"))
		}
		return sim.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.Transient == 0 {
		t.Fatal("ErrRate 0.3 over 50 ops injected nothing")
	}
	if a.Transient == a.Ops {
		t.Fatal("every op failed; injection is not probabilistic")
	}
}

func TestRemoteSimFailEveryN(t *testing.T) {
	sim := NewRemoteSim(NewMem(), SimOptions{FailEveryN: 3})
	ctx := context.Background()
	var failed int
	for i := 0; i < 9; i++ {
		err := sim.Put(ctx, "x", []byte("y"))
		if err != nil {
			if !IsTransient(err) {
				t.Fatalf("injected error not transient: %v", err)
			}
			failed++
		}
	}
	if failed != 3 {
		t.Fatalf("FailEveryN=3 over 9 ops failed %d times, want 3", failed)
	}
}

func TestRemoteSimModeledTime(t *testing.T) {
	// Negative SleepScale: no real sleeping, but the model accumulates
	// latency and transfer time deterministically.
	sim := NewRemoteSim(NewMem(), SimOptions{
		Latency:      time.Millisecond,
		BandwidthBps: 1000, // 1000 bytes/s: a 500-byte blob costs 500ms
		SleepScale:   -1,
	})
	ctx := context.Background()
	start := time.Now()
	if err := sim.Put(ctx, "x", make([]byte, 500)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if wall := time.Since(start); wall > 100*time.Millisecond {
		t.Fatalf("SleepScale 0 slept for real (%v)", wall)
	}
	st := sim.Stats()
	want := time.Millisecond + 500*time.Millisecond
	if st.Modeled != want {
		t.Fatalf("Modeled = %v, want %v", st.Modeled, want)
	}
	if st.Bytes != 500 {
		t.Fatalf("Bytes = %d, want 500", st.Bytes)
	}
}

// flaky fails every op with a transient error until n attempts have
// been made, then delegates.
type flaky struct {
	Backend
	mu       sync.Mutex
	failures int
	attempts int
}

func (f *flaky) Get(ctx context.Context, name string) ([]byte, error) {
	f.mu.Lock()
	f.attempts++
	fail := f.attempts <= f.failures
	f.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("%w: flaky", ErrTransient)
	}
	return f.Backend.Get(ctx, name)
}

func TestRetryRecoversTransient(t *testing.T) {
	mem := NewMem()
	if err := mem.Put(context.Background(), "x", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	f := &flaky{Backend: mem, failures: 2}
	var slept []time.Duration
	r := NewRetry(f, RetryOptions{
		Tries:    4,
		MinDelay: 10 * time.Millisecond,
		MaxDelay: time.Second,
		Sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	})
	got, err := r.Get(context.Background(), "x")
	if err != nil || string(got) != "payload" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if st := r.Stats(); st.Attempts != 3 || st.Retries != 2 {
		t.Fatalf("stats = %+v, want 3 attempts / 2 retries", st)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	// Jittered exponential: retry n draws from [d/2, d], d = 10ms·2^(n-1).
	if slept[0] < 5*time.Millisecond || slept[0] > 10*time.Millisecond {
		t.Errorf("first backoff %v outside [5ms, 10ms]", slept[0])
	}
	if slept[1] < 10*time.Millisecond || slept[1] > 20*time.Millisecond {
		t.Errorf("second backoff %v outside [10ms, 20ms]", slept[1])
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	f := &flaky{Backend: NewMem(), failures: 100}
	r := NewRetry(f, RetryOptions{
		Tries: 3,
		Sleep: func(context.Context, time.Duration) error { return nil },
	})
	_, err := r.Get(context.Background(), "x")
	if !IsTransient(err) {
		t.Fatalf("exhausted retry returned %v, want the transient error", err)
	}
	if st := r.Stats(); st.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", st.Attempts)
	}
}

func TestRetryNotFoundFailsFast(t *testing.T) {
	r := NewRetry(NewMem(), RetryOptions{
		Sleep: func(context.Context, time.Duration) error {
			t.Fatal("retry slept for ErrNotFound")
			return nil
		},
	})
	_, err := r.Get(context.Background(), "missing")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get = %v, want ErrNotFound", err)
	}
	if st := r.Stats(); st.Attempts != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want exactly one attempt and no retries", st)
	}
}

func TestLimiterPacesThroughput(t *testing.T) {
	var clock time.Time
	var slept time.Duration
	l := NewLimiter(NewMem(), 1000, 1000) // 1000 B/s, 1000 B burst
	l.now = func() time.Time { return clock }
	l.last = clock
	l.sleep = func(_ context.Context, d time.Duration) error {
		slept += d
		clock = clock.Add(d)
		return nil
	}
	ctx := context.Background()
	// First 1000 bytes ride the burst; the next 500 must be paid for.
	if err := l.Put(ctx, "a", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if slept != 0 {
		t.Fatalf("burst-sized write slept %v", slept)
	}
	if err := l.Put(ctx, "b", make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	if want := 500 * time.Millisecond; slept != want {
		t.Fatalf("slept %v, want %v", slept, want)
	}
}

func TestLimiterChargesGets(t *testing.T) {
	mem := NewMem()
	ctx := context.Background()
	if err := mem.Put(ctx, "x", make([]byte, 600)); err != nil {
		t.Fatal(err)
	}
	var clock time.Time
	var slept time.Duration
	l := NewLimiter(mem, 100, 100)
	l.now = func() time.Time { return clock }
	l.last = clock
	l.sleep = func(_ context.Context, d time.Duration) error {
		slept += d
		clock = clock.Add(d)
		return nil
	}
	if _, err := l.Get(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	// 600 bytes against a 100-token burst leaves 500 tokens of debt.
	if want := 5 * time.Second; slept != want {
		t.Fatalf("slept %v, want %v", slept, want)
	}
}

// TestMemGetDuringPut pins that Mem.Get, which copies outside the lock,
// returns a whole old or a whole new blob while Puts replace the same
// name: Put stores a fresh copy and never writes into a stored slice.
// Run it under -race, which also sees a Get that hands out the stored
// slice itself (the readers write into what they get).
func TestMemGetDuringPut(t *testing.T) {
	mem := NewMem()
	ctx := context.Background()
	const size, versions = 64 << 10, 200
	buf := make([]byte, size) // reused by the writer, as Put allows
	fill := func(v byte) {
		for i := range buf {
			buf[i] = v
		}
	}
	if err := mem.Put(ctx, "c", buf); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 1; v <= versions; v++ {
			fill(byte(v))
			if err := mem.Put(ctx, "c", buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < versions; k++ {
				got, err := mem.Get(ctx, "c")
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != size {
					t.Errorf("Get returned %d bytes, want %d", len(got), size)
					return
				}
				for i, b := range got {
					if b != got[0] {
						t.Errorf("Get returned a torn blob: byte %d is %d, byte 0 is %d", i, b, got[0])
						return
					}
				}
				got[0] ^= 0xff // the caller owns its copy
			}
		}()
	}
	wg.Wait()
}

func TestCacheHitSkipsRemote(t *testing.T) {
	dir := t.TempDir()
	mem := NewMem()
	ctx := context.Background()
	if err := mem.Put(ctx, "c_1.ctn", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	sim := NewRemoteSim(mem, SimOptions{})
	mx := obs.NewBackendMetrics(obs.NewRegistry())
	c, err := NewCache(sim, dir, 1<<20, mx)
	if err != nil {
		t.Fatalf("NewCache: %v", err)
	}
	for i := 0; i < 3; i++ {
		got, err := c.Get(ctx, "c_1.ctn")
		if err != nil || string(got) != "payload" {
			t.Fatalf("Get #%d = %q, %v", i, got, err)
		}
	}
	if ops := sim.Stats().Ops; ops != 1 {
		t.Fatalf("remote saw %d ops, want 1 (cache misses only)", ops)
	}
	if h, m := mx.CacheHits.Value(), mx.CacheMisses.Value(); h != 2 || m != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", h, m)
	}
	if mx.CacheBytes.Value() != int64(len("payload")) {
		t.Fatalf("CacheBytes = %d, want %d", mx.CacheBytes.Value(), len("payload"))
	}
}

func TestCacheSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	mem := NewMem()
	ctx := context.Background()
	if err := mem.Put(ctx, "c_1.ctn", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	sim := NewRemoteSim(mem, SimOptions{})
	c, err := NewCache(sim, dir, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "c_1.ctn"); err != nil {
		t.Fatal(err)
	}
	// Drop a stale temp to verify reopen sweeps it.
	stale := filepath.Join(dir, durable.TempPrefix+"stale")
	if err := os.WriteFile(stale, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Reopen over the same directory: the entry must be served without
	// touching the remote.
	c2, err := NewCache(sim, dir, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := sim.Stats().Ops
	got, err := c2.Get(ctx, "c_1.ctn")
	if err != nil || string(got) != "payload" {
		t.Fatalf("Get after reopen = %q, %v", got, err)
	}
	if sim.Stats().Ops != before {
		t.Fatal("reopened cache read through to the remote")
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("reopen did not sweep the stale temp file")
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	mem := NewMem()
	ctx := context.Background()
	for i := 1; i <= 3; i++ {
		if err := mem.Put(ctx, fmt.Sprintf("c_%d.ctn", i), make([]byte, 400)); err != nil {
			t.Fatal(err)
		}
	}
	sim := NewRemoteSim(mem, SimOptions{})
	mx := obs.NewBackendMetrics(obs.NewRegistry())
	c, err := NewCache(sim, dir, 1000, mx) // fits two 400-byte blobs
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := c.Get(ctx, fmt.Sprintf("c_%d.ctn", i)); err != nil {
			t.Fatal(err)
		}
	}
	if ev := mx.CacheEvictions.Value(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	// c_1 was evicted; re-reading it must go remote.
	before := sim.Stats().Ops
	if _, err := c.Get(ctx, "c_1.ctn"); err != nil {
		t.Fatal(err)
	}
	if sim.Stats().Ops != before+1 {
		t.Fatal("evicted entry served from cache")
	}
	// On-disk footprint matches the index.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, e := range entries {
		if !e.IsDir() {
			files++
		}
	}
	if files != 2 {
		t.Fatalf("%d cache files on disk, want 2", files)
	}
}

func TestCacheInvalidatesBeforeWrite(t *testing.T) {
	dir := t.TempDir()
	mem := NewMem()
	ctx := context.Background()
	if err := mem.Put(ctx, "c_1.ctn", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	c, err := NewCache(mem, dir, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "c_1.ctn"); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, "c_1.ctn", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(ctx, "c_1.ctn")
	if err != nil || string(got) != "v2" {
		t.Fatalf("Get after overwrite = %q, %v; want v2 (stale cache?)", got, err)
	}
	if err := c.Delete(ctx, "c_1.ctn"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, "c_1.ctn"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}
}

// TestErrNotFoundThroughComposedStack is the satellite audit: the
// sentinel must survive every layer, and the retry layer must not
// re-attempt a missing blob.
func TestErrNotFoundThroughComposedStack(t *testing.T) {
	dir := t.TempDir()
	base, err := NewLocal(filepath.Join(dir, "remote"))
	if err != nil {
		t.Fatal(err)
	}
	sim := NewRemoteSim(base, SimOptions{})
	meter := NewMeter(sim, nil)
	limiter := NewLimiter(meter, 1<<30, 0)
	retry := NewRetry(limiter, RetryOptions{
		Sleep: func(context.Context, time.Duration) error {
			t.Fatal("retry backoff ran for ErrNotFound")
			return nil
		},
	})
	cache, err := NewCache(retry, filepath.Join(dir, "cache"), 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	top := NewObserver(cache, nil, nil)

	if _, err := top.Get(context.Background(), "c_404.ctn"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("composed Get(missing) = %v, want errors.Is ErrNotFound", err)
	}
	if st := retry.Stats(); st.Attempts != 1 || st.Retries != 0 {
		t.Fatalf("retry stats for missing blob = %+v, want one attempt, no retries", st)
	}
	if err := top.Delete(context.Background(), "c_404.ctn"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("composed Delete(missing) = %v, want ErrNotFound", err)
	}
}
