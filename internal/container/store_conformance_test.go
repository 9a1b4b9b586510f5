package container_test

import (
	"testing"

	"hidestore/internal/backend"
	"hidestore/internal/container"
	"hidestore/internal/container/containertest"
)

// The shared Store contract (put/get, missing, delete, sorted IDs,
// snapshots, validation) lives in containertest so the backend package can
// run it against composed remote stacks; here it pins the memory store
// and the file-backed store (the backend adapter over a backend.Local).
func TestStoreConformance(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		containertest.RunStoreSuite(t, func(t *testing.T) container.Store {
			return container.NewMemStore()
		})
	})
	t.Run("file", func(t *testing.T) {
		containertest.RunStoreSuite(t, func(t *testing.T) container.Store {
			dir := t.TempDir()
			local, err := backend.NewLocal(dir)
			if err != nil {
				t.Fatal(err)
			}
			return backend.NewContainerStore(local, dir, false)
		})
	})
}
