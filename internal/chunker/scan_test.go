package chunker

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// refStep is one step of the reference rolling hash (refRabinHash.slide)
// on a bare digest: out leaves the window, in enters.
func refStep(d Poly, out, in byte) Poly {
	d ^= _rabinTab.out[out]
	idx := byte(d >> _rabinTab.shift)
	d = d<<8 | Poly(in)
	return d ^ _rabinTab.mod[idx]
}

// TestStride2StepMatchesTwoSteps pins the two-byte step the skip scan's
// chains take: for any reduced digest and any bytes, roll2 is two
// reference steps, and roll is one.
func TestStride2StepMatchesTwoSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const top = Poly(1)<<53 - 1
	edges := []Poly{0, 1, top, 1 << 52, 1 << 45, 1 << 37, 1<<37 - 1, _rabinSeed}
	for k := 0; k < 1<<20; k++ {
		d := Poly(rng.Uint64()) & top
		if k < len(edges) {
			d = edges[k]
		}
		var b [4]byte
		rng.Read(b[:])
		o1, o2, in1, in2 := b[0], b[1], b[2], b[3]
		one := refStep(d, o1, in1)
		if got := _rabinTab.roll(d, o1, in1); got != one {
			t.Fatalf("roll(%#x, %#x, %#x) = %#x, reference step %#x", d, o1, in1, got, one)
		}
		want := refStep(one, o2, in2)
		if got := _rabinTab.roll2(d, o1, o2, in1, in2); got != want {
			t.Fatalf("roll2(%#x, %#x, %#x, %#x, %#x) = %#x, two reference steps %#x",
				d, o1, o2, in1, in2, got, want)
		}
	}
}

// hitsAny is true for a digest that matches any divisor at default
// params: the TTTD backup divisor's bits are a subset of the TTTD main
// divisor's and of the Rabin mask's.
func hitsAny(d Poly) bool { return d&1023 == 1023 }

// hitsMain matches the Rabin mask (4095) and so the TTTD main divisor.
func hitsMain(d Poly) bool { return d&4095 == 4095 }

// hitsBackOnly matches the TTTD backup divisor (1023) but not the main
// divisor (2047), and so not the Rabin mask either.
func hitsBackOnly(d Poly) bool { return hitsAny(d) && d&2047 != 2047 }

// plantable searches rng for a block of 48+hits-1 bytes (hits is 1 or
// 2) whose reference digests satisfy ok at each of its hits trailing
// positions, and which, set between 48-byte zero runs, matches no
// divisor anywhere else. A zero window digests to 0, so the block can be
// planted in a zero window at any position and brings exactly its own
// matches.
func plantable(rng *rand.Rand, hits int, ok func(Poly) bool) []byte {
	block := make([]byte, _rabinWindow+hits-1)
	first := 2 * _rabinWindow // the block's first full window, in the zero sea
	for {
		rng.Read(block)
		// The block's last byte enters only the low byte of its last
		// digest, so each is tried in turn; it does not touch the first
		// digest of a two-hit block, which must match on its own.
		if hits == 2 && !ok(refDigests(block[:_rabinWindow])[_rabinWindow]) {
			continue
		}
		for c := 0; c < 256; c++ {
			block[len(block)-1] = byte(c)
			sea := append(append(make([]byte, _rabinWindow), block...), make([]byte, _rabinWindow)...)
			d := refDigests(sea)
			clean := true
			for p := _rabinWindow; p < len(d) && clean; p++ {
				if p >= first && p < first+hits {
					clean = ok(d[p])
				} else {
					clean = !hitsAny(d[p])
				}
			}
			if clean {
				return block
			}
		}
	}
}

// refDigests returns the reference rolling digest after each prefix of
// win: d[p] is the digest the cut at position p is decided on.
func refDigests(win []byte) []Poly {
	h := refRabinHash{tab: _rabinTab}
	h.reset()
	d := make([]Poly, len(win)+1)
	d[0] = h.digest
	for i, b := range win {
		h.slide(b)
		d[i+1] = h.digest
	}
	return d
}

// plant places a plantable block so that its first match is at end.
type plant struct {
	block []byte
	end   int
}

// zerosWith returns a zero window of length n with the blocks planted.
func zerosWith(n int, plants ...plant) []byte {
	w := make([]byte, n)
	for _, pl := range plants {
		copy(w[pl.end-_rabinWindow:], pl.block)
	}
	return w
}

// TestSkipScanBoundaries runs the Rabin and TTTD production scans
// against the reference at default params on the windows where a
// two-chain stride could go wrong: every length from Min+1 to Min+70
// (both tail parities) and exactly Max; a match at the guard position
// (Min) and at the first odd position; adjacent matches on both chains
// in one step, which only checking e before o resolves; Max windows
// whose only matches are backup-divisor matches, on both chains; and
// zero and 0x01 runs. A case that names its cuts asserts them against
// the reference first, so it cannot quietly stop testing what it says.
func TestSkipScanBoundaries(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(24))
	hit := plantable(rng, 1, hitsMain)
	hitPair := plantable(rng, 2, hitsMain)
	back := plantable(rng, 1, hitsBackOnly)
	backPair := plantable(rng, 2, hitsBackOnly)
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	min, max := p.Min, p.Max

	type scanCase struct {
		name        string
		win         []byte
		tttd, rabin int // expected cuts; 0: only compare with the reference
	}
	cases := []scanCase{
		{"zeros-max", make([]byte, max), max, max},
		{"ones-max", bytes.Repeat([]byte{0x01}, max), 0, 0},
		{"random-max", random(max), 0, 0},
		{"hit-at-guard", zerosWith(max, plant{hit, min}), min, min},
		{"hit-at-first-odd", zerosWith(max, plant{hit, min + 1}), min + 1, min + 1},
		{"hit-at-first-even-step", zerosWith(max, plant{hit, min + 2}), min + 2, min + 2},
		{"hit-at-first-odd-step", zerosWith(max, plant{hit, min + 3}), min + 3, min + 3},
		{"hits-at-guard-and-first-odd", zerosWith(max, plant{hitPair, min}), min, min},
		{"hits-at-first-odd-and-first-step", zerosWith(max, plant{hitPair, min + 1}), min + 1, min + 1},
		{"hits-on-e-then-o-in-one-step", zerosWith(max, plant{hitPair, min + 100}), min + 100, min + 100},
		{"hits-on-o-then-e-across-steps", zerosWith(max, plant{hitPair, min + 101}), min + 101, min + 101},
		{"backups-on-e-then-o-in-one-step", zerosWith(max, plant{backPair, min + 100}), min + 101, max},
		{"backups-on-o-then-e-across-steps", zerosWith(max, plant{backPair, min + 101}), min + 102, max},
		{"backups-last-on-e", zerosWith(max, plant{back, min + 201}, plant{back, min + 300}), min + 300, max},
		{"backups-last-on-o", zerosWith(max, plant{back, min + 200}, plant{back, min + 301}), min + 301, max},
		{"backup-at-guard-only", zerosWith(max, plant{back, min}), min, max},
		{"backup-at-max", zerosWith(max, plant{back, min + 200}, plant{back, max}), max, max},
		{"backup-before-max", zerosWith(max, plant{back, min + 200}, plant{back, max - 1}), max - 1, max},
		{"hit-at-max", zerosWith(max, plant{hit, max}), max, max},
		{"hit-before-max", zerosWith(max, plant{hit, max - 1}), max - 1, max - 1},
	}
	for n := min + 1; n <= min+70; n++ {
		cases = append(cases,
			scanCase{fmt.Sprintf("zeros-%d", n), make([]byte, n), n, n},
			scanCase{fmt.Sprintf("ones-%d", n), bytes.Repeat([]byte{0x01}, n), 0, 0},
			scanCase{fmt.Sprintf("random-%d", n), random(n), 0, 0},
			scanCase{fmt.Sprintf("hit-at-end-%d", n), zerosWith(n, plant{hit, n}), n, n},
			scanCase{fmt.Sprintf("hit-before-end-%d", n), zerosWith(n, plant{hit, n - 1}), n - 1, n - 1},
		)
	}
	for _, c := range cases {
		for _, alg := range []Algorithm{TTTD, Rabin} {
			want := refCut(alg, c.win, p)
			named := c.tttd
			if alg == Rabin {
				named = c.rabin
			}
			if named != 0 && want != named {
				t.Fatalf("%s: %v reference cuts at %d, case names %d", c.name, alg, want, named)
			}
			d, err := NewDecider(alg, p)
			if err != nil {
				t.Fatal(err)
			}
			if got := d.Cut(c.win); got != want {
				t.Errorf("%s (len %d): %v cuts at %d, reference %d", c.name, len(c.win), alg, got, want)
			}
		}
	}
}

// FuzzScanMatchesReference checks the Rabin and TTTD production scans
// against the reference cuts on one window of at most 64 KB, with
// Min/Avg/Max taken from the input. It runs thousands of inputs a
// second, so `make fuzz-smoke` can afford it in CI; the window is
// clipped to Max, so a short Max exercises the full-window (backup
// divisor) rule.
func FuzzScanMatchesReference(f *testing.F) {
	def := DefaultParams()
	rng := rand.New(rand.NewSource(11))
	big := make([]byte, def.Max)
	rng.Read(big)
	f.Add(big, uint16(def.Min-1), uint16(def.Avg-def.Min), uint16(def.Max-def.Avg))
	f.Add(make([]byte, 5000), uint16(48), uint16(0), uint16(200))
	f.Add(bytes.Repeat([]byte{0x01}, 3000), uint16(47), uint16(16), uint16(64))
	f.Add(big[:4097], uint16(999), uint16(24), uint16(3073))
	f.Fuzz(func(t *testing.T, data []byte, minRaw, avgSpread, maxSpread uint16) {
		p := Params{Min: 1 + int(minRaw)%4096}
		p.Avg = p.Min + int(avgSpread)%4096
		p.Max = p.Avg + int(maxSpread)
		win := data
		if len(win) > 64<<10 {
			win = win[:64<<10]
		}
		if len(win) > p.Max {
			win = win[:p.Max]
		}
		if len(win) <= p.Min {
			t.Skip()
		}
		for _, alg := range []Algorithm{TTTD, Rabin} {
			d, err := NewDecider(alg, p)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := d.Cut(win), refCut(alg, win, p); got != want {
				t.Fatalf("%v %+v, len %d: cut %d, reference %d", alg, p, len(win), got, want)
			}
		}
	})
}
