package container

import (
	"errors"
	"testing"

	"hidestore/internal/fp"
)

// TestPackerRotatesAndSeals: chunks land in arrival order, an image is
// sealed exactly when the next chunk does not fit, IDs come from the
// owner's counter, and Flush hands over the partly filled tail once.
func TestPackerRotatesAndSeals(t *testing.T) {
	next := ID(40)
	var sealed []*Container
	p := &Packer{NextID: &next, Capacity: 1000, Remaining: 2400, Seal: func(c *Container) error {
		sealed = append(sealed, c)
		return nil
	}}
	if err := p.Flush(); err != nil || len(sealed) != 0 {
		t.Fatalf("Flush of an unused packer: %v, %d images sealed", err, len(sealed))
	}
	chunk := func(i int) (fp.FP, []byte) {
		data := make([]byte, 400)
		data[0] = byte(i)
		return fp.Of(data), data
	}
	var ids []ID
	for i := 0; i < 5; i++ {
		f, data := chunk(i)
		id, err := p.Add(f, data)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if want := []ID{41, 41, 42, 42, 43}; len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	} else {
		for i := range want {
			if ids[i] != want[i] {
				t.Fatalf("chunk placement = %v, want %v", ids, want)
			}
		}
	}
	if len(sealed) != 2 || next != 43 {
		t.Fatalf("%d images sealed before Flush, counter at %d; want 2 and 43", len(sealed), next)
	}
	f, data := chunk(4)
	if id, err := p.Add(f, data); !errors.Is(err, ErrDuplicate) || id != 43 {
		t.Fatalf("re-adding a chunk of the open image = %d, %v; want 43, ErrDuplicate", id, err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil || len(sealed) != 3 {
		t.Fatalf("second Flush: %v, %d images sealed in all; want 3", err, len(sealed))
	}
	for i, c := range sealed {
		if want := []int{2, 2, 1}; c.ID() != ID(41+i) || c.Len() != want[i] {
			t.Fatalf("sealed image %d: ID %d with %d chunks", i, c.ID(), c.Len())
		}
	}
}

func TestPackerSealError(t *testing.T) {
	boom := errors.New("boom")
	var next ID
	p := &Packer{NextID: &next, Capacity: 500, Seal: func(*Container) error { return boom }}
	data := make([]byte, 400)
	if _, err := p.Add(fp.Of(data), data); err != nil {
		t.Fatal(err)
	}
	data2 := append([]byte{1}, data[1:]...)
	if _, err := p.Add(fp.Of(data2), data2); !errors.Is(err, boom) {
		t.Fatalf("Add across a failing seal = %v, want boom", err)
	}
}
