package container

import (
	"bytes"
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"hidestore/internal/fp"
)

// The decoder keeps the image's table offsets instead of re-packing the
// chunks, so everything below is load-bearing: a table that lies must be
// an error, never a view outside the payload.

// image builds a container of n random chunks and returns it with its
// encoding.
func image(t testing.TB, seed int64, n int) (*Container, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := NewWithCapacity(ID(seed), DefaultCapacity)
	for i := 0; i < n; i++ {
		data := make([]byte, 1+rng.Intn(4096))
		rng.Read(data)
		if err := c.Add(fp.Of(data), data); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return c, buf
}

// reseal recomputes the CRC, so a mutated image reaches the table checks
// instead of failing the checksum.
func reseal(buf []byte) []byte {
	if len(buf) >= _headerSize {
		binary.BigEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[_headerSize:]))
	}
	return buf
}

// entryField addresses field (0 = offset, 1 = size) of table row i.
func entryField(buf []byte, i, field int) []byte {
	return buf[_headerSize+i*_entrySize+fp.Size+4*field:]
}

func TestUnmarshalRejectsLyingTables(t *testing.T) {
	_, good := image(t, 1, 8)
	dataSize := binary.BigEndian.Uint32(good[16:])
	tests := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-1] }},
		{"truncated table", func(b []byte) []byte { return b[:_headerSize+3*_entrySize] }},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }},
		{"count too high", func(b []byte) []byte { binary.BigEndian.PutUint32(b[12:], 9); return b }},
		{"count too low", func(b []byte) []byte { binary.BigEndian.PutUint32(b[12:], 7); return b }},
		{"count huge", func(b []byte) []byte { binary.BigEndian.PutUint32(b[12:], 0xFFFFFFFF); return b }},
		{"dataSize too high", func(b []byte) []byte { binary.BigEndian.PutUint32(b[16:], dataSize+1); return b }},
		{"dataSize huge", func(b []byte) []byte { binary.BigEndian.PutUint32(b[16:], 0xFFFFFFFF); return b }},
		// One more table row and one row's worth less payload: the length
		// still adds up, and the last "row" is really payload bytes.
		{"count and dataSize lie together", func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[12:], 9)
			binary.BigEndian.PutUint32(b[16:], dataSize-_entrySize)
			return b
		}},
		{"entry past the payload", func(b []byte) []byte {
			binary.BigEndian.PutUint32(entryField(b, 7, 1), dataSize)
			return b
		}},
		{"entry offset past the payload", func(b []byte) []byte {
			binary.BigEndian.PutUint32(entryField(b, 7, 0), dataSize+1)
			return b
		}},
		{"offset plus size wraps", func(b []byte) []byte {
			binary.BigEndian.PutUint32(entryField(b, 7, 0), 0xFFFFFFFF)
			binary.BigEndian.PutUint32(entryField(b, 7, 1), 2)
			return b
		}},
		{"overlapping entries", func(b []byte) []byte {
			off := binary.BigEndian.Uint32(entryField(b, 3, 0))
			binary.BigEndian.PutUint32(entryField(b, 3, 0), off-1)
			return b
		}},
		{"entries out of offset order", func(b []byte) []byte {
			row := func(i int) []byte { return b[_headerSize+i*_entrySize:][:_entrySize] }
			tmp := append([]byte(nil), row(2)...)
			copy(row(2), row(5))
			copy(row(5), tmp)
			return b
		}},
		{"duplicate fingerprint", func(b []byte) []byte {
			copy(b[_headerSize+4*_entrySize:][:fp.Size], b[_headerSize+1*_entrySize:][:fp.Size])
			return b
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			mutated := reseal(tt.mutate(append([]byte(nil), good...)))
			if _, err := UnmarshalBinary(mutated); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestUnmarshalCountsGapsAsDead: payload bytes no entry covers are dead
// space — accounted, reclaimed by the next MarshalBinary — not an error.
func TestUnmarshalCountsGapsAsDead(t *testing.T) {
	orig, buf := image(t, 2, 6)
	// Shrink one chunk from the back and another from the front: a gap
	// after entry 1 and one before entry 4. Their fingerprints no longer
	// match their content, which is the scrubber's business, not the
	// decoder's.
	binary.BigEndian.PutUint32(entryField(buf, 1, 1), binary.BigEndian.Uint32(entryField(buf, 1, 1))-1)
	binary.BigEndian.PutUint32(entryField(buf, 4, 0), binary.BigEndian.Uint32(entryField(buf, 4, 0))+1)
	binary.BigEndian.PutUint32(entryField(buf, 4, 1), binary.BigEndian.Uint32(entryField(buf, 4, 1))-1)
	got, err := UnmarshalBinary(reseal(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.DataSize() != orig.DataSize() || got.LiveSize() != orig.LiveSize()-2 {
		t.Fatalf("data %d live %d, want data %d live %d",
			got.DataSize(), got.LiveSize(), orig.DataSize(), orig.LiveSize()-2)
	}
	again, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	packed, err := UnmarshalBinary(again)
	if err != nil {
		t.Fatal(err)
	}
	if packed.DataSize() != got.LiveSize() || packed.LiveSize() != got.LiveSize() {
		t.Fatalf("re-encoding kept the gaps: data %d live %d", packed.DataSize(), packed.LiveSize())
	}
}

// checkDecoded asserts what every accepted image must satisfy: each view
// lies inside the payload and the sizes add up.
func checkDecoded(t *testing.T, c *Container) {
	t.Helper()
	payload := c.Payload()
	if len(payload) != c.DataSize() {
		t.Fatalf("payload %d bytes, DataSize %d", len(payload), c.DataSize())
	}
	live := 0
	for _, e := range c.Entries() {
		if uint64(e.Offset)+uint64(e.Size) > uint64(len(payload)) {
			t.Fatalf("entry %s [%d,+%d) leaves the %d-byte payload", e.FP.Short(), e.Offset, e.Size, len(payload))
		}
		v, err := c.View(e.FP)
		if err != nil {
			t.Fatal(err)
		}
		if len(v) != int(e.Size) || cap(v) != len(v) {
			t.Fatalf("view of %s: len %d cap %d, want both %d", e.FP.Short(), len(v), cap(v), e.Size)
		}
		live += int(e.Size)
	}
	if live != c.LiveSize() || c.LiveSize() > c.DataSize() || len(c.Entries()) != c.Len() {
		t.Fatalf("sizes do not add up: entries sum %d, live %d, data %d, len %d",
			live, c.LiveSize(), c.DataSize(), c.Len())
	}
}

// TestMarshalRoundTripIsByteIdentical: Marshal → Unmarshal → Marshal gives
// the same bytes, and the decoded container lists its chunks in the
// original's order.
func TestMarshalRoundTripIsByteIdentical(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		orig, buf := image(t, seed, int(seed)*7%40)
		got, err := UnmarshalBinary(append([]byte(nil), buf...))
		if err != nil {
			t.Fatal(err)
		}
		checkDecoded(t, got)
		again, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, buf) {
			t.Fatalf("seed %d: re-encoding differs from the image", seed)
		}
		want, have := orig.Entries(), got.Entries()
		if len(want) != len(have) {
			t.Fatalf("seed %d: %d entries, want %d", seed, len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] || orig.Fingerprints()[i] != got.Fingerprints()[i] {
				t.Fatalf("seed %d: entry %d is %+v, want %+v", seed, i, have[i], want[i])
			}
		}
	}
}

// TestDecodedContainerNeverWritesTheImage: the payload aliases the
// caller's buffer, so every mutation — on the decoded container and on
// its Clone — must reallocate rather than write through.
func TestDecodedContainerNeverWritesTheImage(t *testing.T) {
	_, pristine := image(t, 3, 12)
	// The image sits in a larger array: spare capacity right behind the
	// payload is what an uncapped append would silently use.
	backing := make([]byte, len(pristine)+4096)
	copy(backing, pristine)
	c, err := UnmarshalBinary(backing[:len(pristine)])
	if err != nil {
		t.Fatal(err)
	}
	extra := bytes.Repeat([]byte{0xEE}, 512)
	for name, target := range map[string]*Container{"decoded": c, "clone": c.Clone()} {
		first := target.Fingerprints()[0]
		if err := target.Remove(first); err != nil {
			t.Fatal(err)
		}
		target.Grow(1024)
		if err := target.Add(fp.Of(extra), extra); err != nil {
			t.Fatal(err)
		}
		if got, err := target.View(fp.Of(extra)); err != nil || !bytes.Equal(got, extra) {
			t.Fatalf("%s: added chunk reads back wrong: %v", name, err)
		}
		if !bytes.Equal(backing[:len(pristine)], pristine) || !bytes.Equal(backing[len(pristine):], make([]byte, 4096)) {
			t.Fatalf("mutating the %s container wrote into the caller's buffer", name)
		}
	}
}

// TestUnmarshalKeepsOneBuffer: a decode allocates the chunk table, not a
// second copy of the payload.
func TestUnmarshalKeepsOneBuffer(t *testing.T) {
	_, buf := image(t, 4, 1500)
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if _, err := UnmarshalBinary(buf); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perDecode := (after.TotalAlloc - before.TotalAlloc) / rounds; perDecode > uint64(len(buf))/4 {
		t.Fatalf("decoding a %d-byte image allocated %d bytes", len(buf), perDecode)
	}
}

// TestDecodesImageWrittenBeforeInPlaceDecode: testdata/pr15_image.ctn was
// written by the commit before the decoder stopped re-packing (24 random
// chunks, 4 removed). It must decode to the same chunks in the same
// order — the digest is what that commit restored from it — and
// re-encode to the same file.
func TestDecodesImageWrittenBeforeInPlaceDecode(t *testing.T) {
	buf, err := os.ReadFile("testdata/pr15_image.ctn")
	if err != nil {
		t.Fatal(err)
	}
	c, err := UnmarshalBinary(append([]byte(nil), buf...))
	if err != nil {
		t.Fatal(err)
	}
	checkDecoded(t, c)
	if c.ID() != 42 || c.Len() != 20 || c.DataSize() != 18770 || c.LiveSize() != 18770 {
		t.Fatalf("id %d, %d chunks, data %d, live %d", c.ID(), c.Len(), c.DataSize(), c.LiveSize())
	}
	h := sha1.New()
	for _, f := range c.Fingerprints() {
		v, err := c.View(f)
		if err != nil {
			t.Fatal(err)
		}
		if fp.Of(v) != f {
			t.Fatalf("chunk %s does not hash to its fingerprint", f.Short())
		}
		h.Write(v)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != "ecd6edb516ba2b378d026851e8077f6053ee0946" {
		t.Fatalf("chunks concatenate to %s", got)
	}
	again, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, buf) {
		t.Fatal("re-encoding differs from the file")
	}
}
