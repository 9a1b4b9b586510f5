// Package fp defines chunk fingerprints and helpers around them.
//
// Following the paper (§2.1), every chunk is represented by the 20-byte
// SHA-1 digest of its content. Fingerprint equality is used as chunk
// equality throughout the system: as the paper notes, the probability of a
// SHA-1 collision is far smaller than that of a hardware error.
package fp

import (
	"crypto/sha1"
	"encoding/hex"
	"errors"
	"fmt"
)

// Size is the length of a fingerprint in bytes (SHA-1 digest size).
const Size = sha1.Size

// FP is a chunk fingerprint: the SHA-1 digest of the chunk's content.
// It is a value type and can be used directly as a map key.
type FP [Size]byte

// ErrBadLength reports a byte slice whose length is not exactly Size.
var ErrBadLength = errors.New("fp: fingerprint must be 20 bytes")

// Of computes the fingerprint of data. On amd64 CPUs with the SHA
// extensions it runs a SHA-NI block function (sha1ni_amd64.s), picked once
// by CPUID; elsewhere it is crypto/sha1. The digests are the same.
func Of(data []byte) FP {
	if useSHANI {
		return sumSHANI(data)
	}
	return sha1.Sum(data)
}

// FromBytes converts a 20-byte slice into an FP.
func FromBytes(b []byte) (FP, error) {
	var f FP
	if len(b) != Size {
		return f, fmt.Errorf("%w (got %d)", ErrBadLength, len(b))
	}
	copy(f[:], b)
	return f, nil
}

// Parse decodes a 40-character hex string into an FP.
func Parse(s string) (FP, error) {
	var f FP
	b, err := hex.DecodeString(s)
	if err != nil {
		return f, fmt.Errorf("fp: parse %q: %w", s, err)
	}
	return FromBytes(b)
}

// String renders the fingerprint as lowercase hex.
func (f FP) String() string {
	return hex.EncodeToString(f[:])
}

// Short returns the first 8 hex characters, for logs and debugging.
func (f FP) Short() string {
	return hex.EncodeToString(f[:4])
}

// IsZero reports whether the fingerprint is all zeroes. The zero
// fingerprint is never produced by SHA-1 over real content in practice and
// is used as a sentinel in on-disk formats.
func (f FP) IsZero() bool {
	return f == FP{}
}

// Prefix64 returns the first 8 bytes of the fingerprint as a big-endian
// uint64. Sampling-based indexes (sparse indexing, SiLo) use this to select
// hooks and representative fingerprints: SHA-1 output is uniformly
// distributed, so any fixed slice of it is an unbiased sample key.
func (f FP) Prefix64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(f[i])
	}
	return v
}

// Less imposes a total order on fingerprints (lexicographic byte order).
func (f FP) Less(g FP) bool {
	for i := 0; i < Size; i++ {
		if f[i] != g[i] {
			return f[i] < g[i]
		}
	}
	return false
}

// Compare returns -1, 0, or +1 comparing f and g lexicographically.
func (f FP) Compare(g FP) int {
	for i := 0; i < Size; i++ {
		switch {
		case f[i] < g[i]:
			return -1
		case f[i] > g[i]:
			return 1
		}
	}
	return 0
}
