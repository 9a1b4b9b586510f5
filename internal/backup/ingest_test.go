package backup

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"hidestore/internal/chunker"
	"hidestore/internal/fp"
)

func testIngester() *Ingester {
	return NewIngester(IngestConfig{
		Chunker:     chunker.TTTD,
		ChunkParams: chunker.DefaultParams(),
		HashWorkers: 4,
	})
}

// TestRunDeliversStreamInOrder: whatever the hash workers' scheduling, the
// sink sees the stream's chunks in order, each with its own fingerprint
// and the hash worker's verdict, the skeleton's counts are the stream's,
// and every slab comes back. (The reorder bound itself is pinned where it
// is implemented, in internal/pipeline.)
func TestRunDeliversStreamInOrder(t *testing.T) {
	g := testIngester()
	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(17)).Read(data)

	in, err := g.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	probed := 0
	retErr := in.Run(context.Background(), bytes.NewReader(data),
		func(fp.FP) bool { return true }, nil,
		func(c Chunk) error {
			if c.FP != fp.Of(c.Data) {
				t.Errorf("chunk %d arrived with another chunk's fingerprint", in.Chunks)
			}
			if c.ProbeHit {
				probed++
			}
			got = append(got, c.Data...)
			c.Release()
			return nil
		})
	in.End(&retErr)
	if retErr != nil {
		t.Fatal(retErr)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("the sink saw the stream out of order")
	}
	if probed != in.Chunks || in.LogicalBytes != uint64(len(data)) {
		t.Fatalf("%d chunks / %d bytes counted, %d probe verdicts delivered, for %d bytes in",
			in.Chunks, in.LogicalBytes, probed, len(data))
	}
	if st := g.slabs.stats(); st.InUse != 0 {
		t.Fatalf("%d slabs leaked through the pipeline", st.InUse)
	}
}

type failingReader struct{ err error }

func (r failingReader) Read([]byte) (int, error) { return 0, r.err }

// TestFailureLatch pins the sticky-failure rule where it is implemented: a
// backup that fails before the sink has seen a chunk leaves the engine
// usable; one that fails after does not, whatever is tried next, and the
// refusal names the first cause.
func TestFailureLatch(t *testing.T) {
	g := testIngester()
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(3)).Read(data)
	run := func(r *bytes.Reader, early error, sink func(Chunk) error) (retErr error) {
		in, err := g.Begin(context.Background())
		if err != nil {
			return err
		}
		defer in.End(&retErr)
		if early != nil {
			return in.Run(context.Background(), failingReader{early}, nil, nil, sink)
		}
		return in.Run(context.Background(), r, nil, nil, sink)
	}
	drop := func(c Chunk) error { c.Release(); return nil }

	errSource, errSink := errors.New("source died"), errors.New("sink died")
	if err := run(nil, errSource, drop); !errors.Is(err, errSource) {
		t.Fatalf("failed source: %v", err)
	}
	if err := g.Failed(); err != nil {
		t.Fatalf("a failure before any chunk reached the sink latched the engine: %v", err)
	}
	if err := run(bytes.NewReader(data), nil, drop); err != nil {
		t.Fatalf("backup after a clean failure: %v", err)
	}
	if err := run(bytes.NewReader(data), nil, func(Chunk) error { return errSink }); !errors.Is(err, errSink) {
		t.Fatalf("failed sink: %v", err)
	}
	for i := 0; i < 2; i++ {
		err := run(bytes.NewReader(data), nil, drop)
		if !errors.Is(err, ErrFailed) || !errors.Is(err, errSink) {
			t.Fatalf("retry %d after a failed sink = %v, want ErrFailed wrapping the first cause", i, err)
		}
	}
	var later error = errors.New("later")
	g.FailOn(&later)
	if err := g.Failed(); !errors.Is(err, errSink) || errors.Is(err, later) {
		t.Fatalf("latch replaced its first cause: %v", err)
	}
}
