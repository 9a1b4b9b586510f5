package chunker

// AE is the Asymmetric Extremum algorithm (Zhang et al., INFOCOM'15).
// A cut is declared when a local-maximum byte value is followed by a
// full window of w bytes none of which exceeds it. AE needs no rolling
// hash and touches each byte once; byte values are mixed through the
// gear table so that low-entropy data (runs of equal bytes) still
// produces well-distributed extrema.
//
// The expected chunk size of pure AE is roughly w·(e−1)/1 ≈ 1.72·w; we
// derive w from Params.Avg accordingly (in NewDecider, decide.go) and
// additionally enforce the Min/Max bounds for parity with the other
// chunkers.

// aeScan returns the cut offset in win. The reference loop (kept in
// reference_test.go) scans from 0 but ignores every byte before Min, so
// the hot loop starts at Min-1 directly, seeds the extremum with the
// first considered byte, and drops the per-byte "have we seen a
// maximum yet" test. Pinned bit-identical by the differential fuzz
// harness.
func aeScan(win []byte, min, window int) int {
	n := len(win)
	i := min - 1
	if i < 0 {
		i = 0
	}
	// n > min >= 1, so the seed position exists.
	maxVal := _gear[win[i]]
	maxPos := i
	for i++; i < n; i++ {
		v := _gear[win[i]]
		if v > maxVal {
			maxVal, maxPos = v, i
			continue
		}
		if i-maxPos >= window {
			return i + 1
		}
	}
	return n
}
