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

// mainDivisor is the divisor a main cut matches: the TTTD main divisor
// or the Rabin mask, derived as the reference cuts derive them.
func mainDivisor(alg Algorithm, p Params) Poly {
	if alg == Rabin {
		return Poly(nextPow2(p.Avg) - 1)
	}
	d := nextPow2(p.Avg - p.Min)
	if d < 2 {
		d = 2
	}
	return Poly(d - 1)
}

// FuzzConfirmsImpliesCut pins what the backup ingest's skipped scan
// rests on. Soundness: for n = Cut(w1) and any w2 that keeps w1's first n
// bytes, Confirms(w2, n) implies Cut(w2) == n, whatever follows — also
// when w1's cut was a backup-divisor, Max or end-of-window cut, or fell
// at or below Min. Completeness: Confirms agrees with the reference
// digest at n and at every main-divisor match in w1, so every main cut is
// confirmed and the fast path cannot degrade to "never".
func FuzzConfirmsImpliesCut(f *testing.F) {
	def := DefaultParams()
	rng := rand.New(rand.NewSource(59))
	big := make([]byte, 2*def.Max)
	rng.Read(big)
	f.Add(big, uint16(def.Min-1), uint16(def.Avg-def.Min), uint16(def.Max-def.Avg), uint16(def.Max))
	f.Add(make([]byte, 5000), uint16(48), uint16(0), uint16(200), uint16(100))
	f.Add(bytes.Repeat([]byte{0x01}, 3000), uint16(63), uint16(16), uint16(64), uint16(70))
	f.Add(big[:4097], uint16(999), uint16(24), uint16(3073), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, minRaw, avgSpread, maxSpread, split uint16) {
		p := Params{Min: 1 + int(minRaw)%4096}
		p.Avg = p.Min + int(avgSpread)%4096
		p.Max = p.Avg + int(maxSpread)
		if len(data) > 64<<10 {
			data = data[:64<<10]
		}
		// w1 is the head of data, the suffix of w2 its tail: the two
		// windows share their first n bytes and differ after.
		cut := int(split) % (len(data) + 1)
		w1 := data[:cut]
		if len(w1) > p.Max {
			w1 = w1[:p.Max]
		}
		if len(w1) == 0 {
			t.Skip()
		}
		for _, alg := range []Algorithm{TTTD, Rabin} {
			d, err := NewDecider(alg, p)
			if err != nil {
				t.Fatal(err)
			}
			n := d.Cut(w1)
			w2 := append(append([]byte(nil), w1[:n]...), data[cut:]...)
			if len(w2) > p.Max {
				w2 = w2[:p.Max]
			}
			if d.Confirms(w2, n) != d.Confirms(w1, n) {
				t.Fatalf("%v %+v: Confirms at %d reads past the chunk", alg, p, n)
			}
			if d.Confirms(w2, n) {
				if got := d.Cut(w2); got != n {
					t.Fatalf("%v %+v: Confirms(w2, %d), but Cut(w2) = %d", alg, p, n, got)
				}
			}
			ref, div := refDigests(w1), mainDivisor(alg, p)
			for k := p.Min; k <= len(w1); k++ {
				if k != n && ref[k]&div != div {
					continue
				}
				want := p.Min > _rabinWindow && ref[k]&div == div
				if got := d.Confirms(w1, k); got != want {
					t.Fatalf("%v %+v len %d: Confirms at %d = %v, reference digest says %v", alg, p, len(w1), k, got, want)
				}
			}
		}
	})
}

// TestConfirmsOnlyWhereDefined: Confirms says no for the algorithms and
// parameters it is not defined for, and for lengths outside [Min, len].
func TestConfirmsOnlyWhereDefined(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(61))
	hit := plantable(rng, 1, hitsMain)
	win := zerosWith(p.Max, plant{hit, p.Min + 500})
	for _, alg := range []Algorithm{Fixed, FastCDC, AE} {
		d, err := NewDecider(alg, p)
		if err != nil {
			t.Fatal(err)
		}
		if d.Confirms(win, p.Min+500) {
			t.Errorf("%v confirms a cut", alg)
		}
	}
	for _, alg := range []Algorithm{TTTD, Rabin} {
		d, err := NewDecider(alg, p)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Confirms(win, p.Min+500) || d.Cut(win) != p.Min+500 {
			t.Fatalf("%v: the planted main match is not confirmed", alg)
		}
		if d.Confirms(win[:p.Min+499], p.Min+500) {
			t.Errorf("%v confirms a cut past the window", alg)
		}
		low := zerosWith(p.Max, plant{hit, p.Min - 1})
		if d.Confirms(low, p.Min-1) {
			t.Errorf("%v confirms a cut below Min", alg)
		}
		small, err := NewDecider(alg, Params{Min: 48, Avg: 4096, Max: 16384})
		if err != nil {
			t.Fatal(err)
		}
		if small.Confirms(win, p.Min+500) {
			t.Errorf("%v confirms with Min at the digest window", alg)
		}
	}
}
