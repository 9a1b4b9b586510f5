package chunker

// This file preserves the pre-optimization chunker inner loops as
// executable references. The production loops in rabin.go, tttd.go,
// fastcdc.go and ae.go were restructured for speed (positional
// out-byte derivation, cut-point skip, hoisted masks); their cut
// points are required to be bit-identical to these, and
// differential_test.go pins that on deterministic corpora and under
// fuzzing. Touch these only to mirror an intentional, documented
// chunking-format change.

// refRabinHash is the original rolling Rabin fingerprint: a circular
// window buffer and a per-byte slide method.
type refRabinHash struct {
	tab    *rabinTables
	window [_rabinWindow]byte
	wpos   int
	digest Poly
}

func (h *refRabinHash) reset() {
	h.window = [_rabinWindow]byte{}
	h.wpos = 0
	h.digest = 0
	// Feed a single 1-byte so an all-zero window does not yield digest 0
	// (which would match any mask immediately).
	h.slide(1)
}

func (h *refRabinHash) slide(b byte) {
	out := h.window[h.wpos]
	h.window[h.wpos] = b
	h.digest ^= h.tab.out[out]
	h.wpos++
	if h.wpos >= _rabinWindow {
		h.wpos = 0
	}
	index := byte(h.digest >> h.tab.shift)
	h.digest <<= 8
	h.digest |= Poly(b)
	h.digest ^= h.tab.mod[index]
}

// refRabinCut is the original rabin.Next cut decision for one window.
func refRabinCut(win []byte, p Params) int {
	mask := Poly(nextPow2(p.Avg) - 1)
	h := refRabinHash{tab: _rabinTab}
	h.reset()
	cut := len(win)
	for i := 0; i < len(win); i++ {
		h.slide(win[i])
		if i+1 < p.Min {
			continue
		}
		if h.digest&mask == mask {
			cut = i + 1
			break
		}
	}
	return cut
}

// refTTTDCut is the original tttd.Next cut decision for one window.
func refTTTDCut(win []byte, p Params) int {
	d := nextPow2(p.Avg - p.Min)
	if d < 2 {
		d = 2
	}
	mainDiv := Poly(d - 1)
	backDiv := Poly(d/2 - 1)
	h := refRabinHash{tab: _rabinTab}
	h.reset()
	backup := 0
	cut := len(win)
	for i := 0; i < len(win); i++ {
		h.slide(win[i])
		if i+1 < p.Min {
			continue
		}
		if h.digest&backDiv == backDiv {
			backup = i + 1
		}
		if h.digest&mainDiv == mainDiv {
			cut = i + 1
			backup = 0
			break
		}
	}
	if cut == len(win) && len(win) == p.Max && backup > 0 {
		cut = backup
	}
	return cut
}

// refFastCDCCut is the original fastCDC.Next cut decision for one window.
func refFastCDCCut(win []byte, p Params) int {
	c, _ := NewDecider(FastCDC, p) // only for the masks
	var h uint64
	normal := p.Avg
	if normal > len(win) {
		normal = len(win)
	}
	cut := len(win)
	for i := 0; i < len(win); i++ {
		h = h<<1 + _gear[win[i]]
		if i+1 < p.Min {
			continue
		}
		mask := c.maskL
		if i+1 < normal {
			mask = c.maskS
		}
		if h&mask == 0 {
			cut = i + 1
			break
		}
	}
	return cut
}

// refAECut is the original ae.Next cut decision for one window.
func refAECut(win []byte, p Params) int {
	w := int(float64(p.Avg) / 1.72)
	if w < 1 {
		w = 1
	}
	maxVal := uint64(0)
	maxPos := -1
	cut := len(win)
	for i := 0; i < len(win); i++ {
		v := _gear[win[i]]
		if i+1 < p.Min {
			continue
		}
		if maxPos < 0 || v > maxVal {
			maxVal, maxPos = v, i
			continue
		}
		if i-maxPos >= w {
			cut = i + 1
			break
		}
	}
	return cut
}

// refCut dispatches one window's cut decision to the reference loop,
// including the shared short-window fast return every chunker applies
// before scanning.
func refCut(alg Algorithm, win []byte, p Params) int {
	if len(win) <= p.Min {
		return len(win)
	}
	switch alg {
	case Rabin:
		return refRabinCut(win, p)
	case TTTD:
		return refTTTDCut(win, p)
	case FastCDC:
		return refFastCDCCut(win, p)
	case AE:
		return refAECut(win, p)
	}
	return len(win)
}

// refSplit chunks data with the reference cut decisions, simulating the
// scanner's windowing (a full Max-byte window when available, the tail
// otherwise; the fixed chunker windows by Avg).
func refSplit(alg Algorithm, data []byte, p Params) [][]byte {
	var out [][]byte
	for pos := 0; pos < len(data); {
		end := pos + p.Max
		if alg == Fixed {
			end = pos + p.Avg
		}
		if end > len(data) {
			end = len(data)
		}
		win := data[pos:end]
		cut := len(win)
		if alg != Fixed && len(win) > p.Min {
			cut = refCut(alg, win, p)
		}
		out = append(out, data[pos:pos+cut])
		pos += cut
	}
	return out
}
