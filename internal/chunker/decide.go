package chunker

import (
	"fmt"
	"math/bits"
)

// Decider is the pure cut-point decision for one algorithm: parameters
// and derived masks, no stream state. A cut is a pure function of the
// bytes in one decision window starting at the previous cut, so anything
// that drives its scan through a Decider — the sequential chunker here,
// the backup ingest's slab scan — cuts bit-identical chunks, wherever
// the window's bytes happen to sit in memory. A Decider is read-only and
// safe for concurrent use.
type Decider struct {
	alg Algorithm
	p   Params

	mask     Poly   // rabin: divisor mask
	mainDiv  Poly   // tttd: main divisor mask
	backDiv  Poly   // tttd: backup divisor mask
	maskS    uint64 // fastcdc: strict mask (before the normalization point)
	maskL    uint64 // fastcdc: loose mask (after it)
	aeWindow int    // ae: extremum window
}

// NewDecider returns the cut decision of alg under p.
func NewDecider(alg Algorithm, p Params) (Decider, error) {
	if err := p.Validate(); err != nil {
		return Decider{}, err
	}
	d := Decider{alg: alg, p: p}
	switch alg {
	case Fixed:
		// No derived state: cuts at multiples of Avg.
	case Rabin:
		d.mask = Poly(nextPow2(p.Avg) - 1)
	case TTTD:
		// Divisors derived from the target average: with min-size skipping,
		// the expected chunk size is roughly Min + D, so choose D = Avg - Min
		// (rounded to a power of two for cheap masking). The backup
		// divisor's bits are a subset of the main divisor's, which
		// tttdScanSkip relies on.
		dv := nextPow2(p.Avg - p.Min)
		if dv < 2 {
			dv = 2
		}
		d.mainDiv = Poly(dv - 1)
		d.backDiv = Poly(dv/2 - 1)
	case FastCDC:
		avgBits := bits.TrailingZeros64(uint64(nextPow2(p.Avg)))
		strict := avgBits + 2
		loose := avgBits - 2
		if loose < 1 {
			loose = 1
		}
		if strict > 63 {
			strict = 63
		}
		d.maskS = uint64(1)<<strict - 1
		d.maskL = uint64(1)<<loose - 1
	case AE:
		w := int(float64(p.Avg) / 1.72)
		if w < 1 {
			w = 1
		}
		d.aeWindow = w
	default:
		return Decider{}, fmt.Errorf("chunker: unknown algorithm %v", alg)
	}
	return d, nil
}

// Window is the lookahead a final cut decision needs: a chunk starting at
// position p is fully determined by the next Window() bytes (or by the
// stream tail when fewer remain), and is never longer than Window().
func (d *Decider) Window() int {
	if d.alg == Fixed {
		return d.p.Avg
	}
	return d.p.Max
}

// Cut returns the length of the chunk starting at win[0]. win must be
// either a full Window() window or the entire remainder of the stream;
// len(win) > 0.
func (d *Decider) Cut(win []byte) int {
	if d.alg == Fixed {
		return len(win)
	}
	if len(win) <= d.p.Min {
		return len(win)
	}
	switch d.alg {
	case Rabin:
		return rabinScan(_rabinTab, win, d.p.Min, d.mask)
	case TTTD:
		return tttdScan(_rabinTab, win, d.p.Min, d.mainDiv, d.backDiv, len(win) == d.p.Max)
	case FastCDC:
		return fastcdcScan(win, d.p.Min, d.p.Avg, d.maskS, d.maskL)
	default: // AE; the constructor rejects unknown algorithms.
		return aeScan(win, d.p.Min, d.aeWindow)
	}
}

// Confirms reports whether a chunk of n bytes starting at win[0] ends on
// a main-divisor match: whether the Rabin digest of win[n-48:n] matches
// the TTTD main divisor or the Rabin mask, with Min ≤ n ≤ len(win). It
// reads those 48 bytes only, and is false whenever Confirmable is.
//
// Confirms(win, n) does not imply Cut(win) == n on its own: an earlier
// position may match too. It does when win[:n] is the byte-equal copy of
// a chunk Cut produced under the same Decider that Confirms accepts at n
// (Cut returns the first main match at or after Min, and the copy's
// digests at [Min, n) are the original's, none of which matched). That
// is how the backup ingest skips the scan of a chunk the previous
// version cut; see FuzzConfirmsImpliesCut.
func (d *Decider) Confirms(win []byte, n int) bool {
	if !d.Confirmable() || n < d.p.Min || n > len(win) {
		return false
	}
	div := d.mask
	if d.alg == TTTD {
		div = d.mainDiv
	}
	return rabinDigest(_rabinTab, win[n-_rabinWindow:n])&div == div
}

// Confirmable reports whether Confirms can answer yes: for TTTD and Rabin
// with Min above the 48-byte digest window, and for no other algorithm or
// configuration.
func (d *Decider) Confirmable() bool {
	return (d.alg == TTTD || d.alg == Rabin) && d.p.Min > _rabinWindow
}
