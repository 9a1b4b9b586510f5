package backend

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"hidestore/internal/container"
	"hidestore/internal/container/containertest"
	"hidestore/internal/obs"
)

// composedStack builds the full remote-sim × retry × cache stack the
// CLI's remote backend uses, with deterministic fault injection tuned
// so the retry layer absorbs every transient.
func composedStack(t *testing.T) Backend {
	t.Helper()
	base, err := NewLocal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := NewStack(base, StackOptions{
		Sim: SimOptions{FailEveryN: 5, Seed: 42, SleepScale: -1},
		Retry: RetryOptions{
			Tries:    4,
			MinDelay: 10 * time.Microsecond,
			MaxDelay: 100 * time.Microsecond,
			Seed:     1,
		},
		RateBps:    1 << 30,
		CacheDir:   t.TempDir(),
		CacheBytes: 1 << 20,
		Metrics:    obs.NewBackendMetrics(obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestContainerStoreConformance runs the container.Store contract suite
// against the backend adapter at three composition depths: a bare
// in-memory backend, a bare local-filesystem backend, and the full
// composed stack. The ISSUE's accounting requirement rides on the
// StatsCounting subtest: reads and writes counted by the adapter must be
// identical with the cache interposed, because the cache accelerates
// fetches below the adapter rather than swallowing them above it.
func TestContainerStoreConformance(t *testing.T) {
	t.Run("backend-mem", func(t *testing.T) {
		containertest.RunStoreSuite(t, func(t *testing.T) container.Store {
			return NewContainerStore(NewMem(), "")
		})
	})
	t.Run("backend-local", func(t *testing.T) {
		containertest.RunStoreSuite(t, func(t *testing.T) container.Store {
			dir := t.TempDir()
			base, err := NewLocal(dir)
			if err != nil {
				t.Fatal(err)
			}
			return NewContainerStore(base, dir)
		})
	})
	t.Run("backend-stack", func(t *testing.T) {
		containertest.RunStoreSuite(t, func(t *testing.T) container.Store {
			return NewContainerStore(composedStack(t), "")
		})
	})
}

// TestContainerStoreQuarantinePath: Quarantine reports where the image
// went — its file under the store's directory when it has one (an
// operator can find it there), the blob name when it has none.
func TestContainerStoreQuarantinePath(t *testing.T) {
	dir := t.TempDir()
	local, err := NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		s    *ContainerStore
		want string
	}{
		{NewContainerStore(local, dir), filepath.Join(dir, "quarantine", "c_4.ctn")},
		{NewContainerStore(NewMem(), ""), "quarantine/c_4.ctn"},
	} {
		if err := c.s.Put(containertest.Fill(t, 4, 2)); err != nil {
			t.Fatal(err)
		}
		got, err := c.s.Quarantine(4)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Fatalf("Quarantine reported %q, want %q", got, c.want)
		}
		if has, err := c.s.Has(4); err != nil || has {
			t.Fatalf("quarantined image still in the store: %v %v", has, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "c_4.ctn")); err != nil {
		t.Fatalf("reported path: %v", err)
	}
}
