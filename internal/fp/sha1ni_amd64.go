//go:build amd64

package fp

import "encoding/binary"

// useSHANI selects the SHA-NI block function for Of. It is decided once,
// from CPUID, and is not a setting: every CPU produces the same digests.
var useSHANI = haveSHANI()

// cpuid executes CPUID with the given EAX and ECX inputs.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// blockSHANI runs the SHA-1 compression function over every whole 64-byte
// block of p, updating h. It uses the SHA extensions plus SSSE3 (PSHUFB)
// and SSE4.1 (PINSRD/PEXTRD).
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)

// haveSHANI reports whether the CPU has the SHA extensions and the SSE
// levels blockSHANI uses beside them.
func haveSHANI() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const (
		ssse3 = 1 << 9  // CPUID.1:ECX
		sse41 = 1 << 19 // CPUID.1:ECX
		sha   = 1 << 29 // CPUID.(7,0):EBX
	)
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&ssse3 != 0 && ecx1&sse41 != 0 && ebx7&sha != 0
}

// sumSHANI is SHA-1 (FIPS 180-4) of data on blockSHANI: the whole blocks
// straight from data, then the tail padded with 0x80, zeros and the
// 64-bit big-endian bit length into one or two final blocks.
func sumSHANI(data []byte) FP {
	h := [5]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0}
	n := len(data) &^ 63
	if n > 0 {
		blockSHANI(&h, data[:n])
	}
	var tail [128]byte
	r := copy(tail[:], data[n:])
	tail[r] = 0x80
	end := 64
	if r >= 56 {
		end = 128
	}
	binary.BigEndian.PutUint64(tail[end-8:end], uint64(len(data))<<3)
	blockSHANI(&h, tail[:end])
	var f FP
	for i, v := range h {
		binary.BigEndian.PutUint32(f[4*i:], v)
	}
	return f
}
