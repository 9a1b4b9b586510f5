package container

import (
	"bytes"
	"compress/flate"
	"strings"
	"testing"
)

func newCompressed(t *testing.T) *CompressedStore {
	t.Helper()
	s, err := NewCompressedStore(NewMemStore(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCompressedRoundTrip(t *testing.T) {
	s := newCompressed(t)
	orig := fillContainer(t, 5, 20)
	fps := orig.Fingerprints()
	want := make(map[string][]byte)
	for _, f := range fps {
		d, err := orig.View(f)
		if err != nil {
			t.Fatal(err)
		}
		want[f.String()] = d
	}
	if err := s.Put(orig); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID() != 5 || got.Len() != len(fps) {
		t.Fatalf("shape: id=%d len=%d", got.ID(), got.Len())
	}
	for _, f := range fps {
		d, err := got.View(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d, want[f.String()]) {
			t.Fatalf("chunk %s corrupted", f.Short())
		}
	}
}

func TestCompressedActuallyCompresses(t *testing.T) {
	mem := NewMemStore()
	s, err := NewCompressedStore(mem, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	// Highly compressible payload.
	c := NewWithCapacity(1, DefaultCapacity)
	data := []byte(strings.Repeat("compress me! ", 4096))
	if err := c.Add(carrierFPForTest("x"), data); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(c); err != nil {
		t.Fatal(err)
	}
	ratio := s.CompressionRatio()
	if ratio <= 0 || ratio >= 0.2 {
		t.Fatalf("compression ratio %.3f; repeated text should compress hard", ratio)
	}
	// The inner store holds fewer bytes than the logical payload.
	if mem.TotalLiveBytes() >= uint64(len(data)) {
		t.Fatalf("inner store holds %d bytes for %d logical", mem.TotalLiveBytes(), len(data))
	}
}

func TestCompressedStoreInterface(t *testing.T) {
	s := newCompressed(t)
	if err := s.Put(fillContainer(t, 1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(fillContainer(t, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if has, err := s.Has(1); err != nil || !has {
		t.Fatalf("Has(1) = %v, %v", has, err)
	}
	if has, err := s.Has(9); err != nil || has {
		t.Fatalf("Has(9) = %v, %v", has, err)
	}
	ids, err := s.IDs()
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.Len(); err != nil || n != 2 || len(ids) != 2 {
		t.Fatalf("Len/IDs wrong: %d, %v, %d ids", n, err, len(ids))
	}
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if has, err := s.Has(1); err != nil || has {
		t.Fatal("Delete did not stick")
	}
	st := s.Stats()
	if st.Writes != 2 || st.Deletes != 1 {
		t.Fatalf("stats %+v", st)
	}
	s.ResetStats()
	if s.Stats() != (StoreStats{}) {
		t.Fatal("ResetStats failed")
	}
	if err := s.Put(nil); err == nil {
		t.Fatal("Put(nil) should fail")
	}
}

func TestCompressedBadLevel(t *testing.T) {
	if _, err := NewCompressedStore(NewMemStore(), 42); err == nil {
		t.Fatal("bad level accepted")
	}
}

func TestCompressedRejectsPlainCarrier(t *testing.T) {
	mem := NewMemStore()
	s, err := NewCompressedStore(mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A container written directly to the inner store is not a valid
	// carrier; Get must fail loudly, not return garbage.
	if err := mem.Put(fillContainer(t, 7, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(7); err == nil {
		t.Fatal("plain container accepted as compressed carrier")
	}
}

// carrierFPForTest builds a distinct fingerprint for test payloads.
func carrierFPForTest(s string) (f [20]byte) {
	copy(f[:], s)
	return f
}
