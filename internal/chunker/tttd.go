package chunker

// TTTD implements the Two Thresholds, Two Divisors algorithm (Eshghi &
// Tang, HP Labs), the chunker HiDeStore's prototype uses (§5.1). It scans
// with a rolling Rabin fingerprint and keeps two divisors: the main divisor
// D yields the target average size; the backup divisor D' = D/2 fires twice
// as often and records a fallback cut point. If no main cut appears before
// the maximum threshold, the most recent backup cut is used, which keeps
// forced cuts content-defined instead of positional. Divisor derivation
// lives in NewDecider (decide.go).

// tttdScan returns the cut offset in win: the first position >= min
// matching the main divisor; failing that, the last position matching
// the backup divisor if the window is a full max-size window; failing
// that, len(win). Same three-phase digest walk as rabinScan (the
// outgoing window byte is derived positionally); bit-identical to the
// reference implementation by the differential fuzz harness.
func tttdScan(tab *rabinTables, win []byte, min int, mainDiv, backDiv Poly, isMaxWindow bool) int {
	if min > _rabinWindow {
		return tttdScanSkip(tab, win, min, mainDiv, backDiv, isMaxWindow)
	}
	n := len(win)
	shift := tab.shift
	digest := _rabinSeed
	backup := 0
	i := 0
	p1 := _rabinWindow - 1
	if p1 > n {
		p1 = n
	}
	for ; i < p1; i++ {
		idx := byte(digest >> shift)
		digest = digest<<8 | Poly(win[i])
		digest ^= tab.mod[idx]
		if i+1 >= min {
			if digest&backDiv == backDiv {
				backup = i + 1
			}
			if digest&mainDiv == mainDiv {
				return i + 1
			}
		}
	}
	if i < n {
		digest ^= tab.out[1]
		idx := byte(digest >> shift)
		digest = digest<<8 | Poly(win[i])
		digest ^= tab.mod[idx]
		if i+1 >= min {
			if digest&backDiv == backDiv {
				backup = i + 1
			}
			if digest&mainDiv == mainDiv {
				return i + 1
			}
		}
		i++
	}
	for ; i < n; i++ {
		digest ^= tab.out[win[i-_rabinWindow]]
		idx := byte(digest >> shift)
		digest = digest<<8 | Poly(win[i])
		digest ^= tab.mod[idx]
		if i+1 >= min {
			if digest&backDiv == backDiv {
				backup = i + 1
			}
			if digest&mainDiv == mainDiv {
				return i + 1
			}
		}
	}
	if isMaxWindow && backup > 0 {
		return backup
	}
	return n
}

// tttdScanSkip is tttdScan for min > window, the production
// configuration (2 KB min, 48-byte window), with len(win) > min and
// backDiv's bits a subset of mainDiv's (NewDecider derives both from
// one power of two; rabinScan passes its mask as both). Because the
// fold-out in phase 3 is exact, the digest at any position >= window is
// a linear function over GF(2) of the trailing window bytes alone, so
// the scan warms up over the window before min instead of starting at
// 0 — the cut-point-skip trick fastcdcScan uses, transplanted to the
// rolling Rabin hash — and tests nothing before the guard step, whose
// position is min.
//
// From min on, two digest chains advance two bytes per step (roll2): e
// holds the digests at even offsets from min, o those at odd offsets. A
// one-byte loop is one serial chain of table loads; the core overlaps
// two independent ones. Each step tests e's position before o's, so the
// first main-divisor match and the last backup-divisor match are the
// sequential scan's. A main match is also a backup match, so the main
// divisor is tested only under the backup divisor's rare, well-predicted
// branch. Bit-identical to the reference scans by the differential fuzz
// harness.
func tttdScanSkip(tab *rabinTables, win []byte, min int, mainDiv, backDiv Poly, isMaxWindow bool) int {
	n := len(win)
	shift := tab.shift
	digest := _rabinSeed
	backup := 0
	// Warm the hash over the window preceding min; no cut tests here.
	i := min - _rabinWindow
	for end := min - 1; i < end; i++ {
		idx := byte(digest >> shift)
		digest = digest<<8 | Poly(win[i])
		digest ^= tab.mod[idx]
	}
	// Guard step: the 0x01 reset byte leaves; the cut tested is min.
	digest ^= tab.out[1]
	idx := byte(digest >> shift)
	digest = digest<<8 | Poly(win[i])
	digest ^= tab.mod[idx]
	if digest&backDiv == backDiv {
		backup = i + 1
		if digest&mainDiv == mainDiv {
			return i + 1
		}
	}
	i++
	e := digest
	o := tab.roll(e, win[i-_rabinWindow], win[i])
	if o&backDiv == backDiv {
		backup = i + 1
		if o&mainDiv == mainDiv {
			return i + 1
		}
	}
	// e is at position i and o at i+1, both tested.
	for ; i+3 <= n; i += 2 {
		w := (*[_rabinWindow + 3]byte)(win[i-_rabinWindow:])
		e = tab.roll2(e, w[0], w[1], w[_rabinWindow], w[_rabinWindow+1])
		o = tab.roll2(o, w[1], w[2], w[_rabinWindow+1], w[_rabinWindow+2])
		if e&backDiv == backDiv {
			backup = i + 2
			if e&mainDiv == mainDiv {
				return i + 2
			}
		}
		if o&backDiv == backDiv {
			backup = i + 3
			if o&mainDiv == mainDiv {
				return i + 3
			}
		}
	}
	// The loop can leave one position, n; a match there, main or backup,
	// cuts at n.
	if i+2 == n && tab.roll(o, win[i+1-_rabinWindow], win[i+1])&backDiv == backDiv {
		return n
	}
	if isMaxWindow && backup > 0 {
		return backup
	}
	return n
}
