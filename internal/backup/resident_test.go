package backup

import (
	"bytes"
	"context"
	"maps"
	"testing"
	"testing/iotest"

	"hidestore/internal/chunker"
	"hidestore/internal/fp"
	"hidestore/internal/workload"
)

// splitVersion is one version as chunker.Split and SHA-1 give it: its
// chunks, their fingerprints and its successor table.
type splitVersion struct {
	chunks [][]byte
	fps    []fp.FP
	table  successors
}

func splitOf(t *testing.T, alg chunker.Algorithm, p chunker.Params, data []byte) splitVersion {
	t.Helper()
	chunks, err := chunker.Split(alg, data, p)
	if err != nil {
		t.Fatal(err)
	}
	sv := splitVersion{chunks: chunks, table: successors{}}
	for i, c := range chunks {
		sv.fps = append(sv.fps, fp.Of(c))
		if i > 0 {
			sv.table[succKey(&sv.fps[i-1])] = successor{n: int32(len(c)), fp: sv.fps[i]}
		}
	}
	return sv
}

// residentHooks are the resident hooks the differential runs a version
// under, each built over the chunks of the version before it: none (the
// SHA-1 proof), the chunks' own bytes, and three that lie about them — one
// byte flipped, one byte short, and another chunk's bytes.
func residentHooks(prev splitVersion) map[string]func(fp.FP) []byte {
	own := map[fp.FP][]byte{}
	var order []fp.FP
	for i, c := range prev.chunks {
		if _, ok := own[prev.fps[i]]; !ok {
			order = append(order, prev.fps[i])
		}
		own[prev.fps[i]] = c
	}
	flipped, short, other := map[fp.FP][]byte{}, map[fp.FP][]byte{}, map[fp.FP][]byte{}
	for i, f := range order {
		c := own[f]
		b := append([]byte(nil), c...)
		b[len(b)/2] ^= 0x5a
		flipped[f] = b
		short[f] = c[:len(c)-1]
		if len(order) > 1 {
			other[f] = own[order[(i+1)%len(order)]]
		}
	}
	from := func(m map[fp.FP][]byte) func(fp.FP) []byte {
		return func(f fp.FP) []byte { return m[f] }
	}
	return map[string]func(fp.FP) []byte{
		"nil":         nil,
		"faithful":    from(own),
		"flipped":     from(flipped),
		"short":       from(short),
		"other-chunk": from(other),
	}
}

// evenProbe is a deterministic probe for the differential.
func evenProbe(f fp.FP) bool { return f[0]&1 == 0 }

// ingestAgainst backs data up through g with evenProbe and resident, fails
// t unless every chunk is want's — bytes, fingerprint and probe verdict —
// and g is left with want's successor table, and returns what the
// cutters did.
func ingestAgainst(t *testing.T, g *Ingester, data []byte, want splitVersion, resident func(fp.FP) []byte) work {
	t.Helper()
	in, err := g.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	retErr := in.Run(context.Background(), iotest.HalfReader(bytes.NewReader(data)), evenProbe, resident, func(c Chunk) error {
		switch {
		case i >= len(want.chunks) || !bytes.Equal(c.Data, want.chunks[i]):
			t.Errorf("chunk %d: %d bytes, not Split's", i, len(c.Data))
		case c.FP != want.fps[i] || c.ProbeHit != evenProbe(want.fps[i]):
			t.Errorf("chunk %d: fingerprint %s probe %t, SHA-1 %s", i, c.FP.Short(), c.ProbeHit, want.fps[i].Short())
		}
		i++
		c.Release()
		return nil
	})
	w := workOf(in)
	in.End(&retErr)
	if retErr != nil {
		t.Fatal(retErr)
	}
	if i != len(want.chunks) {
		t.Errorf("%d chunks, Split cut %d", i, len(want.chunks))
	}
	if !maps.Equal(g.prev, want.table) {
		t.Error("the successor table is not Split's")
	}
	return w
}

// TestResidentHooksMatchSplit is the resident compare's differential:
// every preset's chain, at one and four hash workers, under no hook, a
// faithful one and three lying ones, is cut, fingerprinted and probed
// exactly as chunker.Split and SHA-1 give it, and leaves Split's successor
// table behind. The hashed bytes are exact: with the faithful hook only
// the scanned chunks are hashed, each once, yet it confirms exactly the
// cuts the SHA-1 proof does; a lying hook confirms nothing and hashes
// only what it scans; without a hook every chunk is hashed.
func TestResidentHooksMatchSplit(t *testing.T) {
	const versions = 3
	alg, p := chunker.TTTD, chunker.DefaultParams()
	for _, name := range workload.PresetNames() {
		chain := presetChain(t, name, versions)
		var want [versions]splitVersion
		var hooks [versions]map[string]func(fp.FP) []byte
		for v, data := range chain {
			want[v] = splitOf(t, alg, p, data)
			if v > 0 {
				hooks[v] = residentHooks(want[v-1])
			} else {
				hooks[v] = residentHooks(splitVersion{})
			}
		}
		for _, workers := range []int{1, 4} {
			byHook := map[string][versions]work{}
			for hook := range hooks[0] {
				g := slabIngester(alg, p, predictSlab, workers)
				var ws [versions]work
				for v, data := range chain {
					ws[v] = ingestAgainst(t, g, data, want[v], hooks[v][hook])
				}
				byHook[hook] = ws
			}
			for hook, ws := range byHook {
				for v, w := range ws {
					at := func(format string, args ...any) {
						t.Errorf("%s workers=%d %s v%d: "+format, append([]any{name, workers, hook, v + 1}, args...)...)
					}
					switch hook {
					case "nil":
						if w.hashedBytes < w.confirmedBytes+w.scannedBytes {
							at("%+v: a chunk went unhashed", w)
						}
						if v == 0 && w.hashedBytes != w.scannedBytes {
							at("%+v: the first version hashed more than it scanned", w)
						}
					case "faithful":
						nw := byHook["nil"][v]
						if w.hashedBytes != w.scannedBytes {
							at("%+v: hashed bytes are not the scanned bytes", w)
						}
						if w.confirmed != nw.confirmed || w.scanned != nw.scanned || w.scannedBytes != nw.scannedBytes {
							at("%+v confirms other cuts than the SHA-1 proof's %+v", w, nw)
						}
						if v > 0 && name == "kernel" && w.confirmed == 0 {
							at("no cut confirmed")
						}
					default:
						if w.confirmed != 0 || w.hashedBytes != w.scannedBytes {
							at("%+v: a lying hook confirmed a cut or hashed a failed compare", w)
						}
					}
				}
			}
		}
	}
}
