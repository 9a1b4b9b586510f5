package container

import (
	"bytes"
	"errors"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"hidestore/internal/fp"
)

func chunkOf(s string) (fp.FP, []byte) {
	b := []byte(s)
	return fp.Of(b), b
}

func TestAddView(t *testing.T) {
	c := NewWithCapacity(1, 1024)
	f, data := chunkOf("hello")
	if err := c.Add(f, data); err != nil {
		t.Fatal(err)
	}
	got, err := c.View(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("View = %q, want %q", got, data)
	}
	if !c.Has(f) {
		t.Fatal("Has should report true")
	}
	if c.Len() != 1 || c.DataSize() != len(data) || c.LiveSize() != len(data) {
		t.Fatalf("sizes wrong: len=%d data=%d live=%d", c.Len(), c.DataSize(), c.LiveSize())
	}
}

// TestViewAliasesWithoutReachingTheNextChunk: View hands out the
// container's own bytes (no copy), capped so that appending to the view
// reallocates instead of overwriting the chunk stored after it.
func TestViewAliasesWithoutReachingTheNextChunk(t *testing.T) {
	c := NewWithCapacity(1, 1024)
	f1, d1 := chunkOf("first")
	f2, d2 := chunkOf("second")
	for _, ch := range []struct {
		f fp.FP
		d []byte
	}{{f1, d1}, {f2, d2}} {
		if err := c.Add(ch.f, ch.d); err != nil {
			t.Fatal(err)
		}
	}
	view, err := c.View(f1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view, d1) || cap(view) != len(d1) {
		t.Fatalf("View = %q (cap %d), want %q capped at its length", view, cap(view), d1)
	}
	if &view[0] != &c.data[0] {
		t.Fatal("View copied the payload")
	}
	_ = append(view, "overrun"...)
	if got, _ := c.View(f2); !bytes.Equal(got, d2) {
		t.Fatalf("appending to a view overwrote the next chunk: %q", got)
	}
	if _, err := c.View(fp.Of([]byte("absent"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("View of a missing chunk = %v, want ErrNotFound", err)
	}
}

// TestGrowReservesWithoutChangingContents: after Grow(n) the next n bytes
// of Adds do not move the payload buffer, the reservation never exceeds
// the container's capacity, and what was stored before is intact.
func TestGrowReservesWithoutChangingContents(t *testing.T) {
	c := NewWithCapacity(1, 4096)
	f0, d0 := chunkOf("already here")
	if err := c.Add(f0, d0); err != nil {
		t.Fatal(err)
	}
	c.Grow(1 << 20) // far beyond capacity: clamped to Free
	if got := cap(c.data); got != 4096 {
		t.Fatalf("Grow reserved %d bytes, want the capacity of 4096", got)
	}
	base := &c.data[0]
	for i := 0; c.HasRoom(100); i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 100)
		if err := c.Add(fp.Of(payload), payload); err != nil {
			t.Fatal(err)
		}
	}
	if &c.data[0] != base {
		t.Fatal("the payload buffer moved while filling the reserved room")
	}
	if got, _ := c.View(f0); !bytes.Equal(got, d0) {
		t.Fatalf("Grow disturbed stored content: %q", got)
	}
	if c.DataSize() > c.Capacity() || c.Free() >= 100 {
		t.Fatalf("filled to %d of %d", c.DataSize(), c.Capacity())
	}
}

func TestAddFull(t *testing.T) {
	c := NewWithCapacity(1, 10)
	f, _ := chunkOf("0123456789AB")
	if err := c.Add(f, []byte("0123456789AB")); !errors.Is(err, ErrFull) {
		t.Fatalf("got %v, want ErrFull", err)
	}
	// Exactly fitting is fine.
	f2, d2 := chunkOf("0123456789")
	if err := c.Add(f2, d2); err != nil {
		t.Fatal(err)
	}
	if c.Free() != 0 {
		t.Fatalf("Free = %d, want 0", c.Free())
	}
}

func TestAddDuplicate(t *testing.T) {
	c := NewWithCapacity(1, 1024)
	f, d := chunkOf("dup")
	if err := c.Add(f, d); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(f, d); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("got %v, want ErrDuplicate", err)
	}
}

func TestRemoveAndUtilization(t *testing.T) {
	c := NewWithCapacity(7, 100)
	f1, d1 := chunkOf("aaaaaaaaaa")           // 10 bytes
	f2, d2 := chunkOf("bbbbbbbbbbbbbbbbbbbb") // 20 bytes
	if err := c.Add(f1, d1); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(f2, d2); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(f1); err != nil {
		t.Fatal(err)
	}
	if c.Has(f1) {
		t.Fatal("removed chunk still present")
	}
	if c.LiveSize() != 20 || c.DataSize() != 30 {
		t.Fatalf("live=%d data=%d, want 20/30", c.LiveSize(), c.DataSize())
	}
	if got, want := c.Utilization(), 0.20; got != want {
		t.Fatalf("Utilization = %v, want %v", got, want)
	}
	if err := c.Remove(f1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove: got %v, want ErrNotFound", err)
	}
	if _, err := c.View(f1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get removed: got %v, want ErrNotFound", err)
	}
}

func TestFingerprintsOrder(t *testing.T) {
	c := NewWithCapacity(1, 1024)
	var want []fp.FP
	for i := 0; i < 5; i++ {
		f, d := chunkOf("chunk-" + strconv.Itoa(i))
		if err := c.Add(f, d); err != nil {
			t.Fatal(err)
		}
		want = append(want, f)
	}
	if err := c.Remove(want[2]); err != nil {
		t.Fatal(err)
	}
	got := c.Fingerprints()
	wantLive := []fp.FP{want[0], want[1], want[3], want[4]}
	if len(got) != len(wantLive) {
		t.Fatalf("got %d fingerprints, want %d", len(got), len(wantLive))
	}
	for i := range got {
		if got[i] != wantLive[i] {
			t.Fatalf("fingerprint %d out of order", i)
		}
	}
}

func TestCompacted(t *testing.T) {
	c := NewWithCapacity(3, 100)
	f1, d1 := chunkOf("one")
	f2, d2 := chunkOf("two")
	f3, d3 := chunkOf("three")
	for _, x := range []struct {
		f fp.FP
		d []byte
	}{{f1, d1}, {f2, d2}, {f3, d3}} {
		if err := c.Add(x.f, x.d); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Remove(f2); err != nil {
		t.Fatal(err)
	}
	packed := c.Compacted(9)
	if packed.ID() != 9 {
		t.Fatalf("ID = %d, want 9", packed.ID())
	}
	if packed.DataSize() != len(d1)+len(d3) {
		t.Fatalf("DataSize = %d, want %d", packed.DataSize(), len(d1)+len(d3))
	}
	if packed.Len() != 2 || packed.Has(f2) {
		t.Fatal("compacted container content wrong")
	}
	got, err := packed.View(f3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, d3) {
		t.Fatal("payload corrupted by compaction")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	c := NewWithCapacity(42, DefaultCapacity)
	rng := rand.New(rand.NewSource(1))
	var fps []fp.FP
	for i := 0; i < 50; i++ {
		d := make([]byte, 100+rng.Intn(400))
		rng.Read(d)
		f := fp.Of(d)
		if err := c.Add(f, d); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, f)
	}
	// Remove some chunks so marshal exercises the compaction path.
	for i := 0; i < 10; i++ {
		if err := c.Remove(fps[i*3]); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != c.ID() {
		t.Fatalf("ID = %d, want %d", got.ID(), c.ID())
	}
	if got.Len() != c.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), c.Len())
	}
	for _, f := range c.Fingerprints() {
		want, err := c.View(f)
		if err != nil {
			t.Fatal(err)
		}
		have, err := got.View(f)
		if err != nil {
			t.Fatalf("decoded container missing %s: %v", f.Short(), err)
		}
		if !bytes.Equal(want, have) {
			t.Fatalf("chunk %s corrupted", f.Short())
		}
	}
}

func TestUnmarshalCorruption(t *testing.T) {
	c := NewWithCapacity(1, 1024)
	f, d := chunkOf("payload")
	if err := c.Add(f, d); err != nil {
		t.Fatal(err)
	}
	buf, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"short", func(b []byte) []byte { return b[:10] }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }},
		{"bad version", func(b []byte) []byte { b[5] = 99; return b }},
		{"flipped data bit", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"flipped entry bit", func(b []byte) []byte { b[_headerSize] ^= 0x01; return b }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			mutated := tt.mutate(append([]byte(nil), buf...))
			if _, err := UnmarshalBinary(mutated); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(payloads [][]byte) bool {
		c := NewWithCapacity(5, DefaultCapacity)
		for _, p := range payloads {
			if len(p) == 0 || !c.HasRoom(len(p)) {
				continue
			}
			_ = c.Add(fp.Of(p), p) // duplicates allowed to fail
		}
		buf, err := c.MarshalBinary()
		if err != nil {
			return false
		}
		got, err := UnmarshalBinary(buf)
		if err != nil {
			return false
		}
		if got.Len() != c.Len() {
			return false
		}
		for _, f := range c.Fingerprints() {
			want, _ := c.View(f)
			have, err := got.View(f)
			if err != nil || !bytes.Equal(want, have) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	c := NewWithCapacity(1, 1024)
	f, d := chunkOf("orig")
	if err := c.Add(f, d); err != nil {
		t.Fatal(err)
	}
	cl := c.Clone()
	f2, d2 := chunkOf("extra")
	if err := cl.Add(f2, d2); err != nil {
		t.Fatal(err)
	}
	if c.Has(f2) {
		t.Fatal("mutating clone affected the original")
	}
}
