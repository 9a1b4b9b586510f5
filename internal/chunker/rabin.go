package chunker

import "math/bits"

// Poly is a polynomial over GF(2), bit i representing the coefficient of x^i.
type Poly uint64

// _rabinPoly is an irreducible polynomial of degree 53, the same default
// used by well-known Rabin chunker implementations. Irreducibility makes
// the rolling fingerprint behave like a uniform hash of the window.
const _rabinPoly Poly = 0x3DA3358B4DC173

// _rabinWindow is the number of bytes the rolling fingerprint covers.
// 48 bytes is the classic choice (LBFS and descendants).
const _rabinWindow = 48

func polyDeg(p Poly) int {
	if p == 0 {
		return -1
	}
	return 63 - bits.LeadingZeros64(uint64(p))
}

func polyMod(x, p Poly) Poly {
	dp := polyDeg(p)
	for d := polyDeg(x); d >= dp; d = polyDeg(x) {
		x ^= p << uint(d-dp)
	}
	return x
}

// appendByte folds one byte into hash, reducing modulo pol.
func appendByte(hash Poly, b byte, pol Poly) Poly {
	hash <<= 8
	hash |= Poly(b)
	return polyMod(hash, pol)
}

// rabinTables holds the precomputed shift-out and reduction tables for a
// given polynomial and window size.
type rabinTables struct {
	out   [256]Poly // contribution of the byte leaving the window
	mod   [256]Poly // reduction values for the rolling append
	shift uint      // digest bits above which reduction applies

	// The two-byte step's tables (roll2). ra[a] = a·x^61 mod P and
	// rb[b] = b·x^53 mod P reduce a digest's top two bytes once it is
	// shifted up by x^16; like mod, each also carries the raw bits that
	// shift leaves at x^53 and above, so xoring it in clears them.
	// out16/out8 are out times x^16 and x^8, reduced.
	ra, rb, out16, out8 [256]Poly
}

func calcRabinTables(pol Poly, window int) *rabinTables {
	t := &rabinTables{shift: uint(polyDeg(pol) - 8)}
	for b := 0; b < 256; b++ {
		var h Poly
		h = appendByte(h, byte(b), pol)
		for i := 0; i < window-1; i++ {
			h = appendByte(h, 0, pol)
		}
		t.out[b] = h
	}
	k := uint(polyDeg(pol))
	for b := 0; b < 256; b++ {
		red := polyMod(Poly(b)<<k, pol)
		t.mod[b] = red | Poly(b)<<k
		t.rb[b] = red ^ Poly(b)<<k
		t.ra[b] = polyMod(red<<8, pol) ^ Poly(b)<<(k+8)
		t.out8[b] = polyMod(t.out[b]<<8, pol)
		t.out16[b] = polyMod(t.out8[b]<<8, pol)
	}
	return t
}

// roll advances digest d by one byte: out leaves the window, in enters.
// The scan loops write the same step out inline.
func (t *rabinTables) roll(d Poly, out, in byte) Poly {
	d ^= t.out[out]
	return (d<<8 | Poly(in)) ^ t.mod[byte(d>>t.shift)]
}

// roll2 is roll(roll(d, out1, in1), out2, in2) in one step, for the
// degree-53 _rabinPoly and a reduced d (d < x^53). Both rolls are linear
// over GF(2), so the result is d·x^16 ⊕ out1·x^16 ⊕ out2·x^8 ⊕ in1·x^8
// ⊕ in2 mod P, and d·x^16 mod P is the low 37 bits of d shifted up,
// which need no reduction, xor the top 16 looked up a byte at a time.
// Only the two lookups wait for d; the parenthesised terms do not, so
// they are combined while the lookups load, off the chain a scan waits on.
func (t *rabinTables) roll2(d Poly, out1, out2, in1, in2 byte) Poly {
	return t.ra[byte(d>>45)] ^ t.rb[byte(d>>37)] ^
		(d<<16 ^ t.out16[out1] ^ t.out8[out2] ^ Poly(in1)<<8 ^ Poly(in2))
}

// _rabinTab is shared by all rabin chunkers; the polynomial and window are
// fixed so the table is computed once.
var _rabinTab = calcRabinTables(_rabinPoly, _rabinWindow)

// _rabinSeed is the digest after the rolling hash's reset: one 0x01
// guard byte folded into an all-zero window, so an all-zero stream does
// not yield digest 0 (which would match any mask immediately). Computed
// from the tables rather than hard-coded so it tracks _rabinPoly.
var _rabinSeed = _rabinTab.roll(0, 0, 1)

// rabinDigest is the digest a scan tests at the end of w, whose length
// is the 48-byte window: the warm-up and guard step of tttdScanSkip. The
// fold-out is exact, so it is the digest any scan holds at that position,
// whatever bytes came before w.
func rabinDigest(tab *rabinTables, w []byte) Poly {
	digest := _rabinSeed
	for _, b := range w[:_rabinWindow-1] {
		idx := byte(digest >> tab.shift)
		digest = digest<<8 | Poly(b)
		digest ^= tab.mod[idx]
	}
	return tab.roll(digest, 1, w[_rabinWindow-1])
}

// rabinScan returns the cut offset (1..len(win)) the rolling Rabin
// fingerprint picks in win: the first position >= min whose digest
// matches mask, or len(win) if none does.
//
// It is the hot-loop form of the textbook implementation (kept as
// refRabinHash in reference_test.go and pinned bit-identical by the
// differential fuzz harness): instead of maintaining a circular window
// buffer and calling a slide method per byte, the loop derives the
// outgoing window byte positionally in three phases —
//
//	phase 1, i < window-1: the outgoing byte is one of the reset's
//	  zeros, and tab.out[0] == 0, so the fold-out is a no-op;
//	phase 2, i == window-1: the 0x01 guard byte leaves;
//	phase 3, i >= window: win[i-window] leaves.
func rabinScan(tab *rabinTables, win []byte, min int, mask Poly) int {
	if min > _rabinWindow {
		// Rabin is TTTD without the backup fallback.
		return tttdScanSkip(tab, win, min, mask, mask, false)
	}
	n := len(win)
	shift := tab.shift
	digest := _rabinSeed
	i := 0
	p1 := _rabinWindow - 1
	if p1 > n {
		p1 = n
	}
	for ; i < p1; i++ {
		idx := byte(digest >> shift)
		digest = digest<<8 | Poly(win[i])
		digest ^= tab.mod[idx]
		if i+1 >= min && digest&mask == mask {
			return i + 1
		}
	}
	if i < n {
		digest ^= tab.out[1]
		idx := byte(digest >> shift)
		digest = digest<<8 | Poly(win[i])
		digest ^= tab.mod[idx]
		if i+1 >= min && digest&mask == mask {
			return i + 1
		}
		i++
	}
	for ; i < n; i++ {
		digest ^= tab.out[win[i-_rabinWindow]]
		idx := byte(digest >> shift)
		digest = digest<<8 | Poly(win[i])
		digest ^= tab.mod[idx]
		if i+1 >= min && digest&mask == mask {
			return i + 1
		}
	}
	return n
}
