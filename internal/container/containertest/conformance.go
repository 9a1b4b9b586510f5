// Package containertest exports the container.Store conformance suite
// so store implementations outside this package tree — notably the
// composed backend stacks in internal/backend, which cannot be imported
// from container's own tests without a cycle — prove the same contract
// as MemStore and FileStore.
package containertest

import (
	"bytes"
	"errors"
	"strconv"
	"testing"

	"hidestore/internal/container"
	"hidestore/internal/fp"
)

// Fill builds a container with n distinct chunks for suite fixtures.
func Fill(t *testing.T, id container.ID, n int) *container.Container {
	t.Helper()
	c := container.NewWithCapacity(id, container.DefaultCapacity)
	for i := 0; i < n; i++ {
		d := []byte("chunk-" + strconv.Itoa(int(id)) + "-" + strconv.Itoa(i))
		if err := c.Add(fp.Of(d), d); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// RunStoreSuite runs the shared container.Store contract against a
// store implementation; open must return a fresh, empty store per call.
func RunStoreSuite(t *testing.T, open func(t *testing.T) container.Store) {
	t.Run("PutGet", func(t *testing.T) {
		s := open(t)
		orig := Fill(t, 3, 10)
		firstFP := orig.Fingerprints()[0]
		wantChunk, err := orig.View(firstFP)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(orig); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(3)
		if err != nil {
			t.Fatal(err)
		}
		if got.ID() != 3 || got.Len() != 10 {
			t.Fatalf("got id=%d len=%d", got.ID(), got.Len())
		}
		have, err := got.View(firstFP)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(have, wantChunk) {
			t.Fatal("chunk corrupted through store")
		}
	})
	t.Run("GetMissing", func(t *testing.T) {
		if _, err := open(t).Get(99); !errors.Is(err, container.ErrNotFound) {
			t.Fatalf("got %v, want ErrNotFound", err)
		}
	})
	t.Run("Delete", func(t *testing.T) {
		s := open(t)
		if err := s.Put(Fill(t, 1, 2)); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(1); err != nil {
			t.Fatal(err)
		}
		if has, err := s.Has(1); err != nil || has {
			t.Fatal("container survives Delete")
		}
		if err := s.Delete(1); !errors.Is(err, container.ErrNotFound) {
			t.Fatalf("double delete: got %v, want ErrNotFound", err)
		}
	})
	t.Run("IDsSorted", func(t *testing.T) {
		s := open(t)
		for _, id := range []container.ID{5, 1, 3} {
			if err := s.Put(Fill(t, id, 1)); err != nil {
				t.Fatal(err)
			}
		}
		ids, err := s.IDs()
		if err != nil {
			t.Fatal(err)
		}
		want := []container.ID{1, 3, 5}
		if len(ids) != len(want) {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
		for i := range want {
			if ids[i] != want[i] {
				t.Fatalf("IDs = %v, want %v", ids, want)
			}
		}
		if n, err := s.Len(); err != nil || n != 3 {
			t.Fatalf("Len = %d, %v, want 3", n, err)
		}
	})
	t.Run("StatsCounting", func(t *testing.T) {
		s := open(t)
		if err := s.Put(Fill(t, 1, 3)); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(Fill(t, 2, 3)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := s.Get(1); err != nil {
				t.Fatal(err)
			}
		}
		st := s.Stats()
		if st.Writes != 2 {
			t.Fatalf("Writes = %d, want 2", st.Writes)
		}
		if st.Reads != 5 {
			t.Fatalf("Reads = %d, want 5", st.Reads)
		}
		if st.BytesRead == 0 || st.BytesWritten == 0 {
			t.Fatal("byte counters should be non-zero")
		}
		s.ResetStats()
		if got := s.Stats(); got != (container.StoreStats{}) {
			t.Fatalf("stats after reset = %+v", got)
		}
	})
	t.Run("PutValidation", func(t *testing.T) {
		s := open(t)
		if err := s.Put(nil); err == nil {
			t.Fatal("Put(nil) should fail")
		}
		if err := s.Put(container.New(0)); err == nil {
			t.Fatal("Put(ID 0) should fail")
		}
	})
}
