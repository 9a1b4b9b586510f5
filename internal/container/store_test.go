package container

import (
	"strconv"
	"testing"

	"hidestore/internal/fp"
)

func fillContainer(t *testing.T, id ID, n int) *Container {
	t.Helper()
	c := NewWithCapacity(id, DefaultCapacity)
	for i := 0; i < n; i++ {
		d := []byte("chunk-" + strconv.Itoa(int(id)) + "-" + strconv.Itoa(i))
		if err := c.Add(fp.Of(d), d); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestMemStorePutSnapshots: Put must capture the container's state at
// the time of the call. The engine keeps appending to active containers
// after persisting them; readers of the store must never observe those
// later mutations (the backend adapter gets this for free via serialization).
func TestMemStorePutSnapshots(t *testing.T) {
	s := NewMemStore()
	c := fillContainer(t, 1, 1)
	if err := s.Put(c); err != nil {
		t.Fatal(err)
	}
	late := []byte("added after Put")
	if err := c.Add(fp.Of(late), late); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("snapshot has %d chunks; mutation after Put leaked into the store", got.Len())
	}
	if got.Has(fp.Of(late)) {
		t.Fatal("chunk added after Put is visible through the store")
	}
}

func TestMemStoreTotalLiveBytes(t *testing.T) {
	s := NewMemStore()
	c1 := fillContainer(t, 1, 2)
	c2 := fillContainer(t, 2, 3)
	want := uint64(c1.LiveSize() + c2.LiveSize())
	if err := s.Put(c1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(c2); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalLiveBytes(); got != want {
		t.Fatalf("TotalLiveBytes = %d, want %d", got, want)
	}
}
