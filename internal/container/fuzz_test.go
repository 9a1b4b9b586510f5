package container

import (
	"bytes"
	"os"
	"testing"
)

// FuzzUnmarshalBinary hardens the in-place decoder against arbitrary
// bytes: it must never panic, every view of an accepted image must lie
// inside its payload, and anything it accepts must round-trip. Each input
// is tried as given and with its checksum recomputed, so mutations reach
// the table checks instead of stopping at the CRC.
func FuzzUnmarshalBinary(f *testing.F) {
	for seed, n := range []int{0, 1, 3, 9} {
		_, buf := image(f, int64(seed+1), n)
		f.Add(buf)
		f.Add(buf[:len(buf)/2])
	}
	if old, err := os.ReadFile("testdata/pr15_image.ctn"); err == nil {
		f.Add(old)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, input := range [][]byte{data, reseal(append([]byte(nil), data...))} {
			got, err := UnmarshalBinary(input)
			if err != nil {
				continue
			}
			checkDecoded(t, got)
			// Accepted input must re-encode and decode to the same content.
			again, err := got.MarshalBinary()
			if err != nil {
				t.Fatalf("accepted container failed to marshal: %v", err)
			}
			back, err := UnmarshalBinary(again)
			if err != nil {
				t.Fatalf("re-encoded container failed to decode: %v", err)
			}
			if back.Len() != got.Len() || back.ID() != got.ID() {
				t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
					back.ID(), back.Len(), got.ID(), got.Len())
			}
			for _, fpr := range got.Fingerprints() {
				want, err := got.View(fpr)
				if err != nil {
					t.Fatal(err)
				}
				have, err := back.View(fpr)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, have) {
					t.Fatal("round trip changed payload")
				}
			}
		}
	})
}
