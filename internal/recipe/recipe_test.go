package recipe

import (
	"errors"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"hidestore/internal/fp"
)

func sampleRecipe(version, n int) *Recipe {
	r := New(version)
	rng := rand.New(rand.NewSource(int64(version)))
	for i := 0; i < n; i++ {
		f := fp.Of([]byte("v" + strconv.Itoa(version) + "-c" + strconv.Itoa(i)))
		cid := int32(rng.Intn(21) - 10) // mix of negative, zero, positive
		r.Append(f, uint32(1000+rng.Intn(4000)), cid)
	}
	return r
}

func TestEntryKinds(t *testing.T) {
	tests := []struct {
		name      string
		cid       int32
		inActive  bool
		inArchive bool
		fwd       int
		isFwd     bool
	}{
		{"active", 0, true, false, 0, false},
		{"archive", 7, false, true, 0, false},
		{"forward", -4, false, false, 4, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := Entry{CID: tt.cid}
			if e.InActive() != tt.inActive {
				t.Errorf("InActive = %v", e.InActive())
			}
			if e.InArchive() != tt.inArchive {
				t.Errorf("InArchive = %v", e.InArchive())
			}
			fwd, ok := e.Forward()
			if fwd != tt.fwd || ok != tt.isFwd {
				t.Errorf("Forward = %d,%v want %d,%v", fwd, ok, tt.fwd, tt.isFwd)
			}
		})
	}
}

func TestAccounting(t *testing.T) {
	r := New(1)
	r.Append(fp.Of([]byte("a")), 100, 1)
	r.Append(fp.Of([]byte("b")), 200, 1)
	r.Append(fp.Of([]byte("c")), 300, 2)
	r.Append(fp.Of([]byte("d")), 400, 0)
	r.Append(fp.Of([]byte("e")), 500, -3)
	if r.NumChunks() != 5 {
		t.Fatalf("NumChunks = %d", r.NumChunks())
	}
	if r.TotalBytes() != 1500 {
		t.Fatalf("TotalBytes = %d", r.TotalBytes())
	}
	if r.SizeBytes() != 5*EntrySize {
		t.Fatalf("SizeBytes = %d", r.SizeBytes())
	}
	if r.UniqueContainers() != 2 {
		t.Fatalf("UniqueContainers = %d, want 2", r.UniqueContainers())
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	r := sampleRecipe(9, 500)
	buf, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != r.Version || len(got.Entries) != len(r.Entries) {
		t.Fatalf("header mismatch: v%d/%d entries", got.Version, len(got.Entries))
	}
	for i := range r.Entries {
		if got.Entries[i] != r.Entries[i] {
			t.Fatalf("entry %d mismatch: %+v != %+v", i, got.Entries[i], r.Entries[i])
		}
	}
}

func TestMarshalEmpty(t *testing.T) {
	r := New(1)
	buf, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 || got.NumChunks() != 0 {
		t.Fatal("empty recipe round trip failed")
	}
}

func TestUnmarshalCorruption(t *testing.T) {
	buf, err := sampleRecipe(2, 10).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"short", func(b []byte) []byte { return b[:8] }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-1] }},
		{"bad magic", func(b []byte) []byte { b[1] ^= 0xFF; return b }},
		{"bad version", func(b []byte) []byte { b[5] = 9; return b }},
		{"bitflip", func(b []byte) []byte { b[len(b)-2] ^= 0x10; return b }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := UnmarshalBinary(tt.mutate(append([]byte(nil), buf...))); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(version uint16, sizes []uint16, cids []int16) bool {
		r := New(int(version) + 1)
		for i, sz := range sizes {
			cid := int32(0)
			if i < len(cids) {
				cid = int32(cids[i])
			}
			r.Append(fp.Of([]byte{byte(i), byte(i >> 8)}), uint32(sz), cid)
		}
		buf, err := r.MarshalBinary()
		if err != nil {
			return false
		}
		got, err := UnmarshalBinary(buf)
		if err != nil || got.Version != r.Version || len(got.Entries) != len(r.Entries) {
			return false
		}
		for i := range r.Entries {
			if got.Entries[i] != r.Entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	r := sampleRecipe(1, 3)
	cl := r.Clone()
	cl.Entries[0].CID = 999
	if r.Entries[0].CID == 999 {
		t.Fatal("Clone shares entry storage")
	}
}

func TestMemStoreGetIsolation(t *testing.T) {
	s := NewMemStore()
	r := sampleRecipe(1, 3)
	if err := s.Put(r); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	got.Entries[0].CID = 12345
	again, err := s.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Entries[0].CID == 12345 {
		t.Fatal("mutating a Get result leaked into the store")
	}
}
