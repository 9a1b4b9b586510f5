package chunker

import (
	"fmt"
	"math/bits"
)

// decider is the pure cut-point decision for one algorithm: parameters
// and derived masks, no stream state. Both the sequential chunker and
// the multi-lane parallel chunker drive their scans through the same
// decider, which is what makes their chunk sequences bit-identical —
// a cut is a pure function of the bytes in one decision window.
type decider struct {
	alg Algorithm
	p   Params

	mask     Poly   // rabin: divisor mask
	mainDiv  Poly   // tttd: main divisor mask
	backDiv  Poly   // tttd: backup divisor mask
	maskS    uint64 // fastcdc: strict mask (before the normalization point)
	maskL    uint64 // fastcdc: loose mask (after it)
	aeWindow int    // ae: extremum window
}

func newDecider(alg Algorithm, p Params) (decider, error) {
	d := decider{alg: alg, p: p}
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
		return decider{}, fmt.Errorf("chunker: unknown algorithm %v", alg)
	}
	return d, nil
}

// winBytes is the lookahead a final cut decision needs: a chunk
// starting at position p is fully determined by the next winBytes()
// bytes (or by the stream tail when fewer remain).
func (d *decider) winBytes() int {
	if d.alg == Fixed {
		return d.p.Avg
	}
	return d.p.Max
}

// cutLen returns the length of the chunk starting at win[0]. win must
// be either a full winBytes() window or the entire remainder of the
// stream; len(win) > 0.
func (d *decider) cutLen(win []byte) int {
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
