package chunker

// _gear is the FastCDC gear table: 256 pseudo-random 64-bit values, one per
// byte value. The table is fixed (generated by splitmix64 from a fixed
// seed) so chunking is deterministic across runs and machines.
var _gear = makeGear(0x9E3779B97F4A7C15)

// _gear2 is the doubled gear table (_gear[b] << 1), the "two-gear" trick:
// advancing the hash two bytes at once is h<<2 + _gear2[a] + _gear[b],
// saving one shift per pair. It is only usable where no boundary test is
// needed between the two bytes, i.e. in the skip region below Min.
var _gear2 = func() [256]uint64 {
	var g [256]uint64
	for i, v := range _gear {
		g[i] = v << 1
	}
	return g
}()

func makeGear(seed uint64) [256]uint64 {
	var g [256]uint64
	x := seed
	for i := range g {
		// splitmix64 step.
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		g[i] = z ^ (z >> 31)
	}
	return g
}

// FastCDC (Xia et al., USENIX ATC'16) uses normalized chunking at
// level 2: positions before the average size must match a stricter
// mask (fewer cuts), positions after it a looser one (more cuts).
// This pulls the size distribution toward the average and reduces the
// number of forced max-size cuts. Mask derivation lives in NewDecider
// (decide.go).

// fastcdcScan returns the cut offset in win: the first position >= min
// whose gear hash matches the strict mask (before the normalization
// point) or the loose mask (after it), or len(win) if none does.
//
// Two hot-loop restructurings over the reference implementation (kept
// in reference_test.go, pinned bit-identical by the differential fuzz
// harness):
//
//   - Cut-point skip: h = h<<1 + gear[b] shifts each byte's
//     contribution one bit left per step, so after 64 steps it falls
//     off the top of the uint64 — the hash at position p depends only
//     on bytes (p-63..p). The first tested position is min-1, so the
//     scan starts at min-64 with h = 0 and every tested position sees
//     the exact reference value. The skipped region is warmed two
//     bytes per iteration with the doubled gear table (_gear2).
//   - The per-byte strict-vs-loose mask select is hoisted out of the
//     loop by splitting it at the normalization point.
func fastcdcScan(win []byte, min, avg int, maskS, maskL uint64) int {
	n := len(win)
	normal := avg
	if normal > n {
		normal = n
	}
	i := 0
	if min > 64 {
		i = min - 64
	}
	var h uint64
	warm := min - 1
	if warm > n {
		warm = n
	}
	for ; i+1 < warm; i += 2 {
		h = h<<2 + _gear2[win[i]] + _gear[win[i+1]]
	}
	if i < warm {
		h = h<<1 + _gear[win[i]]
		i++
	}
	se := normal - 1 // first index tested with the loose mask
	for ; i < se; i++ {
		h = h<<1 + _gear[win[i]]
		if h&maskS == 0 {
			return i + 1
		}
	}
	for ; i < n; i++ {
		h = h<<1 + _gear[win[i]]
		if h&maskL == 0 {
			return i + 1
		}
	}
	return n
}
