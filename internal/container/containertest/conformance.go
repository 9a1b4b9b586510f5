// Package containertest exports the container.Store conformance suite
// so store implementations outside this package tree — notably the
// composed backend stacks in internal/backend, which cannot be imported
// from container's own tests without a cycle — prove the same contract
// as MemStore, and the read counter tests put in front of a store.
package containertest

import (
	"bytes"
	"errors"
	"strconv"
	"sync/atomic"
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
	t.Run("PutSnapshots", func(t *testing.T) {
		// The engine adds to and tombstones in active containers after
		// persisting them; readers of the store never see that.
		s := open(t)
		c := Fill(t, 2, 3)
		removed, late := c.Fingerprints()[0], []byte("added after Put")
		if err := s.Put(c); err != nil {
			t.Fatal(err)
		}
		if err := c.Add(fp.Of(late), late); err != nil {
			t.Fatal(err)
		}
		if err := c.Remove(removed); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(2)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 3 || !got.Has(removed) || got.Has(fp.Of(late)) {
			t.Fatal("a mutation after Put leaked into the stored image")
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

// CountingStore is a container.Store that counts the reads it serves
// and the live bytes it stores. Stores keep no counters of their own, so
// a test that takes the store's traffic as an independent witness — of
// the reads a restore counted, say — puts Counting(store) exactly where
// the store was.
type CountingStore struct {
	container.Store
	reads, written atomic.Uint64
}

// Counting wraps s in a counter.
func Counting(s container.Store) *CountingStore { return &CountingStore{Store: s} }

// Put implements container.Store, adding the live payload of every
// container it stores to Written.
func (c *CountingStore) Put(ctn *container.Container) error {
	if err := c.Store.Put(ctn); err != nil {
		return err
	}
	c.written.Add(uint64(ctn.LiveSize()))
	return nil
}

// Get implements container.Store, counting every read that succeeds.
func (c *CountingStore) Get(id container.ID) (*container.Container, error) {
	got, err := c.Store.Get(id)
	if err == nil {
		c.reads.Add(1)
	}
	return got, err
}

// Reads returns the reads served since the last Reset.
func (c *CountingStore) Reads() uint64 { return c.reads.Load() }

// Written returns the live bytes stored since the last Reset.
func (c *CountingStore) Written() uint64 { return c.written.Load() }

// Reset zeroes both counts.
func (c *CountingStore) Reset() {
	c.reads.Store(0)
	c.written.Store(0)
}
