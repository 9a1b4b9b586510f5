package backup

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"hidestore/internal/chunker"
	"hidestore/internal/fp"
	"hidestore/internal/recipe"
	"hidestore/internal/workload"
)

// presetChain is the first versions of a workload preset at one MiB per
// version.
func presetChain(t *testing.T, name string, versions int) [][]byte {
	t.Helper()
	cfg, err := workload.Preset(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Versions = versions
	gen, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var chain [][]byte
	for gen.HasNext() {
		r, err := gen.NextVersion()
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, data)
	}
	return chain
}

// predictSlab is a slab size no chunk or window size divides, with a few
// chunks per slab at the default parameters.
const predictSlab = 21_007

// work is what one Run's cutters did: cuts confirmed from the successor
// table, chunks scanned, the confirmed and the scanned chunks' bytes, and
// the bytes SHA-1 read.
type work struct {
	confirmed, scanned                        int64
	confirmedBytes, scannedBytes, hashedBytes int64
}

func workOf(in *Ingest) work {
	return work{in.confirmed.Load(), in.scanned.Load(),
		in.confirmedBytes.Load(), in.scannedBytes.Load(), in.hashedBytes.Load()}
}

// ingestVersion backs one version up through g, fails t unless it is
// chunker.Split's chunks, and returns what the cutters did.
func ingestVersion(t *testing.T, g *Ingester, data []byte) work {
	t.Helper()
	in, err := g.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	retErr := in.Run(context.Background(), iotest.HalfReader(bytes.NewReader(data)), nil, nil, func(c Chunk) error {
		got = append(got, append([]byte(nil), c.Data...))
		c.Release()
		return nil
	})
	w := workOf(in)
	in.End(&retErr)
	if retErr != nil {
		t.Fatal(retErr)
	}
	want, err := chunker.Split(g.cfg.Chunker, data, g.cfg.ChunkParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameChunks(got, want); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestPredictedChainsMatchSplit is the successor table's differential:
// every version of every preset's chain, TTTD and Rabin, a small and the
// default slab, one and four hash workers, is cut exactly as
// chunker.Split cuts it. The cutters' work is the same to the last digit
// at one worker and at four, and on the kernel chain at the default slab
// at least 80 % of a later version's chunks are confirmed, not scanned,
// so a fast path that stopped firing fails here too.
func TestPredictedChainsMatchSplit(t *testing.T) {
	const versions = 6
	p := chunker.DefaultParams()
	for _, name := range workload.PresetNames() {
		chain := presetChain(t, name, versions)
		for _, alg := range []chunker.Algorithm{chunker.TTTD, chunker.Rabin} {
			for _, slab := range []int{predictSlab, slabBytes} {
				var byWorkers [2][versions]work
				var later work // versions 2 on, one worker
				for i, workers := range []int{1, 4} {
					g := slabIngester(alg, p, slab, workers)
					for v, data := range chain {
						byWorkers[i][v] = ingestVersion(t, g, data)
					}
				}
				for v := range chain {
					w := byWorkers[0][v]
					if byWorkers[1][v] != w {
						t.Errorf("%s %v slab %d v%d: 1 worker %+v, 4 workers %+v", name, alg, slab, v+1, w, byWorkers[1][v])
					}
					if v == 0 && w.confirmed != 0 {
						t.Errorf("%s %v slab %d: %d chunks of the first version confirmed", name, alg, slab, w.confirmed)
					}
					if v > 0 {
						later.confirmed += w.confirmed
						later.scanned += w.scanned
					}
					if slab == slabBytes && v > 0 {
						t.Logf("%s %v v%d: %d confirmed, %d scanned, scan share %.3f",
							name, alg, v+1, w.confirmed, w.scanned, float64(w.scannedBytes)/float64(len(chain[v])))
					}
				}
				share := float64(later.confirmed) / float64(later.confirmed+later.scanned)
				if name == "kernel" && slab == slabBytes && share < 0.8 {
					t.Errorf("%s %v: versions 2-%d: %d cuts confirmed, %d scanned", name, alg, versions, later.confirmed, later.scanned)
				}
			}
		}
	}
}

// adversary is a stream built around a reference chunk x that follows a
// main-divisor chunk a: version 1 is a + x + v1, version 2 a + x2 + v2.
type adversary struct {
	name   string
	x, x2  []byte // x2 is x unless the case edits the chunk itself
	v1, v2 []byte
}

// randomBytes draws n bytes from rng.
func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// adversaries builds, by search with Cut as the only oracle, the cuts the
// successor table must not take on trust: x cut by the backup divisor
// (TTTD only), at Max, at the end of the stream above and below Min —
// each kept byte for byte in version 2 and followed there by bytes that
// move its cut — and x cut by the main divisor but edited in version 2 so
// that an earlier main match cuts it short while its last 48 bytes stay.
// A cut that no suffix moves is a main-divisor cut; one that a suffix
// moves is not.
func adversaries(t *testing.T, alg chunker.Algorithm, p chunker.Params) (a []byte, cases []adversary) {
	d, err := chunker.NewDecider(alg, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(67))
	// moved returns a suffix after x that moves x's cut off len(x), or
	// nil if tries random suffixes leave it in place.
	moved := func(x []byte, tries int) []byte {
		for i := 0; i < tries; i++ {
			s := randomBytes(rng, 2*p.Max)
			if d.Cut(append(append([]byte(nil), x...), s...)[:p.Max]) != len(x) {
				return s
			}
		}
		return nil
	}
	// mainCut draws windows until one's cut, at least atLeast long and
	// short of Max, stays put under 16 suffixes.
	mainCut := func(atLeast int) (x, rest []byte) {
		for {
			w := randomBytes(rng, p.Max)
			if n := d.Cut(w); n >= atLeast && n < p.Max && moved(w[:n], 16) == nil {
				return w[:n], w[n:]
			}
		}
	}
	a, _ = mainCut(p.Min)
	if alg == chunker.TTTD {
		for {
			w := randomBytes(rng, p.Max)
			n := d.Cut(w)
			if n <= p.Min || n == p.Max {
				continue
			}
			if s := moved(w[:n], 100); s != nil {
				cases = append(cases, adversary{"backup-divisor", w[:n], w[:n], w[n:], s})
				break
			}
		}
	}
	// Zeros digest to 0, which matches no divisor: cut at Max.
	zeros := make([]byte, p.Max)
	cases = append(cases, adversary{"max", zeros, zeros, randomBytes(rng, p.Max), randomBytes(rng, p.Max)})
	for _, size := range []int{p.Min + 700, p.Min / 2} {
		for {
			x := randomBytes(rng, size)
			if d.Cut(x) != size {
				continue
			}
			if s := moved(x, 100); s != nil {
				name := "end-of-stream"
				if size < p.Min {
					name = "below-min"
				}
				cases = append(cases, adversary{name, x, x, nil, s})
				break
			}
		}
	}
	for {
		x, rest := mainCut(p.Min + 200)
		x2 := append([]byte(nil), x...)
		rng.Read(x2[p.Min : len(x)-48])
		if d.Cut(append(append([]byte(nil), x2...), rest...)) < len(x) {
			cases = append(cases, adversary{"edited-inside", x, x2, rest, rest})
			break
		}
	}
	return a, cases
}

// TestPredictionAdversarialChains backs up each adversary's two versions
// and requires chunker.Split's chunks for both; the cases check first
// that Split cuts x in version 1 and not in version 2, so each is a cut
// the successor table predicts and must refuse.
func TestPredictionAdversarialChains(t *testing.T) {
	p := slabParams
	for _, alg := range []chunker.Algorithm{chunker.TTTD, chunker.Rabin} {
		a, cases := adversaries(t, alg, p)
		for _, c := range cases {
			v1 := append(append(append([]byte(nil), a...), c.x...), c.v1...)
			v2 := append(append(append([]byte(nil), a...), c.x2...), c.v2...)
			s1, err := chunker.Split(alg, v1, p)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := chunker.Split(alg, v2, p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(s1[0], a) || !bytes.Equal(s1[1], c.x) || !bytes.Equal(s2[0], a) {
				t.Fatalf("%v %s: version 1 is not cut a, x", alg, c.name)
			}
			if c.name != "max" && len(s2[1]) == len(c.x) {
				t.Fatalf("%v %s: version 2 still cuts x at %d", alg, c.name, len(c.x))
			}
			t.Run(fmt.Sprintf("%v/%s", alg, c.name), func(t *testing.T) {
				for _, workers := range []int{1, 4} {
					g := slabIngester(alg, p, smallSlab, workers)
					ingestVersion(t, g, v1)
					if fa := fp.Of(a); g.prev[succKey(&fa)].n == 0 {
						t.Fatal("the table does not hold a's successor")
					}
					ingestVersion(t, g, v2)
				}
			})
		}
	}
}

// chainIngester is slabIngester at the default parameters after a clean
// backup of v1, so its successor table is full.
func chainIngester(t *testing.T, v1 []byte) *Ingester {
	g := slabIngester(chunker.TTTD, chunker.DefaultParams(), slabBytes, 4)
	ingestVersion(t, g, v1)
	if len(g.prev) == 0 {
		t.Fatal("a clean backup left an empty successor table")
	}
	return g
}

// TestSuccessorTableAfterFailedRun: a Run cancelled mid-slab, or cut short
// by a reader error or a sink error, leaves no goroutine that reads the
// table — the test writes every entry right after Run returns, which the
// race detector would flag — keeps the last good version's table, and
// the next Run is chunker.Split's chunks and still confirms cuts from it.
func TestSuccessorTableAfterFailedRun(t *testing.T) {
	chain := presetChain(t, "kernel", 2)
	v1 := append(append([]byte(nil), chain[0]...), chain[0]...) // two slabs and more
	v2 := append(append([]byte(nil), chain[1]...), chain[1]...)
	boom := errors.New("source died")
	failures := map[string]func(g *Ingester) error{
		"cancel": func(g *Ingester) error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r := &cancellingReader{rng: rand.New(rand.NewSource(71)), at: slabBytes + slabBytes/2, cancel: cancel}
			_, _, err := ingestChunks(ctx, t, g, r)
			return err
		},
		"reader": func(g *Ingester) error {
			r := io.MultiReader(bytes.NewReader(v2[:len(v2)/2+1234]), iotest.ErrReader(boom))
			_, _, err := ingestChunks(context.Background(), t, g, r)
			return err
		},
		"sink": func(g *Ingester) error {
			in, err := g.Begin(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			seen := 0
			retErr := in.Run(context.Background(), bytes.NewReader(v2), nil, nil, func(c Chunk) error {
				c.Release()
				if seen++; seen == 300 {
					return boom
				}
				return nil
			})
			err = retErr
			in.End(&retErr)
			return err
		},
	}
	for name, fail := range failures {
		before := runtime.NumGoroutine()
		g := chainIngester(t, v1)
		kept := g.prev
		if err := fail(g); err == nil {
			t.Fatalf("%s: Run succeeded", name)
		}
		if len(g.prev) != len(kept) {
			t.Fatalf("%s: table %d entries, the last good version's %d", name, len(g.prev), len(kept))
		}
		for k := range g.prev {
			g.prev[k] = successor{}
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines before, %d after", name, before, runtime.NumGoroutine())
			}
		}
		// The writes spoiled g's table; fail a fresh one the same way.
		g = chainIngester(t, v1)
		if err := fail(g); err == nil {
			t.Fatalf("%s: Run succeeded", name)
		}
		// An engine refuses writes after a failure until it is reopened,
		// with a new Ingester; the ingest's own state must not depend on
		// that, so the latch is lifted here.
		g.failed = nil
		if w := ingestVersion(t, g, v2); w.confirmed == 0 {
			t.Errorf("%s: the Run after a failure confirmed no cut", name)
		}
	}
}

// TestSuccessorTableHoldsOneVersion: over ten backups the table never
// holds more than the last version's chunks, and a chunker that cannot
// confirm a cut (FastCDC, or TTTD with Min inside the digest window)
// keeps no table at all.
func TestSuccessorTableHoldsOneVersion(t *testing.T) {
	chain := presetChain(t, "gcc", 10)
	g := slabIngester(chunker.TTTD, chunker.DefaultParams(), slabBytes, 4)
	for v, data := range chain {
		ingestVersion(t, g, data)
		chunks, err := chunker.Split(chunker.TTTD, data, chunker.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if len(g.prev) >= len(chunks) {
			t.Fatalf("v%d: %d chunks, table %d entries", v+1, len(chunks), len(g.prev))
		}
	}
	for _, g := range []*Ingester{
		slabIngester(chunker.FastCDC, chunker.DefaultParams(), slabBytes, 4),
		slabIngester(chunker.TTTD, chunker.Params{Min: 48, Avg: 1024, Max: 4096}, slabBytes, 4),
	} {
		for _, data := range chain[:2] {
			ingestVersion(t, g, data)
		}
		if g.prev != nil {
			t.Errorf("%v %+v: a table of %d entries", g.cfg.Chunker, g.cfg.ChunkParams, len(g.prev))
		}
	}
}

// recipeOf is the chunk list a recipe records for data under alg and p.
func recipeOf(t *testing.T, alg chunker.Algorithm, p chunker.Params, data []byte) []recipe.Entry {
	t.Helper()
	chunks, err := chunker.Split(alg, data, p)
	if err != nil {
		t.Fatal(err)
	}
	r := recipe.New(1)
	for _, c := range chunks {
		r.Append(fp.Of(c), uint32(len(c)), 0)
	}
	return r.Entries
}

// TestSeedFromRecipe: an Ingester seeded with the recipe of a version cut
// under its own chunker and parameters confirms most cuts of the next
// version on its first Run, exactly as a chained one would; seeded with
// any other chunker or parameters — whose cuts prove nothing here — or
// after a Run has left a table, it ignores the seed and never loads it.
func TestSeedFromRecipe(t *testing.T) {
	chain := presetChain(t, "kernel", 2)
	p := chunker.DefaultParams()
	for _, alg := range []chunker.Algorithm{chunker.TTTD, chunker.Rabin} {
		chained := slabIngester(alg, p, slabBytes, 4)
		ingestVersion(t, chained, chain[0])
		want := ingestVersion(t, chained, chain[1])

		g := slabIngester(alg, p, slabBytes, 4)
		g.Seed(alg, p, func() ([]recipe.Entry, error) { return recipeOf(t, alg, p, chain[0]), nil })
		if got := ingestVersion(t, g, chain[1]); got != want {
			t.Errorf("%v: seeded %+v, chained %+v", alg, got, want)
		}
		if 5*want.confirmed < 4*(want.confirmed+want.scanned) {
			t.Errorf("%v: %+v, under 80 %% confirmed", alg, want)
		}
	}

	refuse := func(name string, g *Ingester, alg chunker.Algorithm, p chunker.Params) {
		before := g.prev
		g.Seed(alg, p, func() ([]recipe.Entry, error) {
			t.Errorf("%s: the seed was loaded", name)
			return recipeOf(t, alg, p, chain[0]), nil
		})
		if len(g.prev) != len(before) {
			t.Errorf("%s: the seed replaced a table of %d entries with %d", name, len(before), len(g.prev))
		}
		if w := ingestVersion(t, g, chain[1]); name != "after a Run" && w.confirmed != 0 {
			t.Errorf("%s: %d cuts confirmed", name, w.confirmed)
		}
	}
	other := chunker.Params{Min: 1024, Avg: 4096, Max: 16384}
	refuse("other params", slabIngester(chunker.TTTD, p, slabBytes, 4), chunker.TTTD, other)
	refuse("other chunker", slabIngester(chunker.TTTD, p, slabBytes, 4), chunker.Rabin, p)
	refuse("fastcdc", slabIngester(chunker.FastCDC, p, slabBytes, 4), chunker.FastCDC, p)
	refuse("after a Run", chainIngester(t, chain[0]), chunker.TTTD, p)

	g := slabIngester(chunker.TTTD, p, slabBytes, 4)
	g.Seed(chunker.TTTD, p, func() ([]recipe.Entry, error) { return nil, errors.New("recipe store down") })
	if g.prev != nil {
		t.Error("a failed load left a table")
	}
	ingestVersion(t, g, chain[1])
}
