package container_test

import (
	"bytes"
	"compress/flate"
	"context"
	"io"
	"runtime"
	"strings"
	"testing"

	"hidestore/internal/backend"
	"hidestore/internal/container"
	"hidestore/internal/container/containertest"
	"hidestore/internal/fp"
)

// At-rest compression is the backend adapter's codec: with compress set,
// backend.ContainerStore stores each image DEFLATE-compressed inside a
// one-chunk carrier image. These tests pin it from the container side.

func newCompressed() (*backend.ContainerStore, *backend.Mem) {
	mem := backend.NewMem()
	return backend.NewContainerStore(mem, "", true), mem
}

func TestCompressedRoundTrip(t *testing.T) {
	s, _ := newCompressed()
	orig := containertest.Fill(t, 5, 20)
	fps := orig.Fingerprints()
	want := make(map[fp.FP][]byte)
	for _, f := range fps {
		d, err := orig.View(f)
		if err != nil {
			t.Fatal(err)
		}
		want[f] = d
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
		if !bytes.Equal(d, want[f]) {
			t.Fatalf("chunk %s corrupted", f.Short())
		}
	}
}

// TestCompressedActuallyCompresses: a compressible image is stored in
// well under its raw size.
func TestCompressedActuallyCompresses(t *testing.T) {
	s, mem := newCompressed()
	c := container.NewWithCapacity(1, container.DefaultCapacity)
	data := []byte(strings.Repeat("compress me! ", 4096))
	if err := c.Add(fp.Of(data), data); err != nil {
		t.Fatal(err)
	}
	raw, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(c); err != nil {
		t.Fatal(err)
	}
	blob, err := mem.Get(context.Background(), backend.ContainerName(1))
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(blob)) / float64(len(raw)); ratio >= 0.2 {
		t.Fatalf("compression ratio %.3f; repeated text should compress hard", ratio)
	}
}

// TestCompressedStoreInterface runs the Store contract against the
// compressing adapter.
func TestCompressedStoreInterface(t *testing.T) {
	containertest.RunStoreSuite(t, func(t *testing.T) container.Store {
		s, _ := newCompressed()
		return s
	})
}

func TestCompressedRejectsPlainCarrier(t *testing.T) {
	s, mem := newCompressed()
	// An image written without compression is not a valid carrier; Get
	// must fail loudly, not return garbage.
	if err := backend.NewContainerStore(mem, "", false).Put(containertest.Fill(t, 7, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(7); err == nil {
		t.Fatal("plain container accepted as compressed carrier")
	}
}

// TestCompressedPutReusesCodec: the compressing adapter reuses its DEFLATE
// state, so a Put of a small image allocates less than building that
// state once does (about 800 KB), and what it stores still reads back.
func TestCompressedPutReusesCodec(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := flate.NewWriter(io.Discard, flate.DefaultCompression); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	state := after.TotalAlloc - before.TotalAlloc

	s, _ := newCompressed()
	c := containertest.Fill(t, 1, 8)
	if err := s.Put(c); err != nil { // builds the pooled state
		t.Fatal(err)
	}
	const rounds = 20
	runtime.ReadMemStats(&before)
	for range rounds {
		if err := s.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perPut := (after.TotalAlloc - before.TotalAlloc) / rounds; perPut >= state {
		t.Errorf("a Put of an 8-chunk image allocated %d B; the compressor state is %d B", perPut, state)
	}
	for range 2 { // the second Get runs on a pooled reader
		got, err := s.Get(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range c.Fingerprints() {
			want, _ := c.View(f)
			if d, err := got.View(f); err != nil || !bytes.Equal(d, want) {
				t.Fatalf("chunk %s: %v", f.Short(), err)
			}
		}
	}
}
