package workload

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"

	"hidestore/internal/chunker"
	"hidestore/internal/fp"
)

func smallConfig() Config {
	return Config{
		Name:          "test",
		Versions:      6,
		Files:         32,
		BlocksPerFile: 12,
		BlockSize:     8192,
		ModifyRate:    0.05,
		InsertRate:    0.004,
		DeleteRate:    0.002,
		FileChurn:     0.01,
		Seed:          42,
	}
}

func readAll(t *testing.T, g *Generator) []byte {
	t.Helper()
	r, err := g.NextVersion()
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero versions", func(c *Config) { c.Versions = 0 }},
		{"zero files", func(c *Config) { c.Files = 0 }},
		{"negative modify", func(c *Config) { c.ModifyRate = -0.1 }},
		{"modify > 1", func(c *Config) { c.ModifyRate = 1.5 }},
		{"churn > 1", func(c *Config) { c.FileChurn = 2 }},
		{"rates sum > 1", func(c *Config) { c.ModifyRate, c.DeleteRate, c.FlapRate = 0.5, 0.4, 0.2 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("want validation error")
			}
		})
	}
	if err := smallConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestDeterminism(t *testing.T) {
	g1, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		a := readAll(t, g1)
		b := readAll(t, g2)
		if !bytes.Equal(a, b) {
			t.Fatalf("version %d differs between identical generators", v+1)
		}
		if len(a) == 0 {
			t.Fatalf("version %d is empty", v+1)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfgA := smallConfig()
	cfgB := smallConfig()
	cfgB.Seed = 43
	ga, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(readAll(t, ga), readAll(t, gb)) {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestAdjacentVersionRedundancy verifies the central workload property:
// consecutive versions share most of their chunks, and redundancy between
// version 1 and a far-later version decays.
func TestAdjacentVersionRedundancy(t *testing.T) {
	cfg := smallConfig()
	cfg.Versions = 10
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := chunker.Params{Min: 1024, Avg: 4096, Max: 16384}
	chunkSet := func(data []byte) map[fp.FP]int {
		chunks, err := chunker.Split(chunker.FastCDC, data, params)
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[fp.FP]int)
		for _, c := range chunks {
			set[fp.Of(c)] += len(c)
		}
		return set
	}
	overlap := func(a, b map[fp.FP]int) float64 {
		var shared, total int
		for f, sz := range b {
			total += sz
			if _, ok := a[f]; ok {
				shared += sz
			}
		}
		return float64(shared) / float64(total)
	}
	v1 := chunkSet(readAll(t, g))
	v2 := chunkSet(readAll(t, g))
	adj := overlap(v1, v2)
	if adj < 0.7 {
		t.Fatalf("adjacent redundancy %.2f too low; want > 0.7", adj)
	}
	// Walk to version 10 and compare with version 1.
	last := v2
	for v := 3; v <= 10; v++ {
		last = chunkSet(readAll(t, g))
	}
	far := overlap(v1, last)
	if far >= adj {
		t.Fatalf("redundancy should decay: v1∩v2 = %.2f, v1∩v10 = %.2f", adj, far)
	}
}

// TestDepartedChunksRarelyReturn checks the Figure 3 property: chunks
// absent from version v reappear in later versions only rarely (never,
// with FlapRate 0).
func TestDepartedChunksRarelyReturn(t *testing.T) {
	cfg := smallConfig()
	cfg.Versions = 8
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := chunker.Params{Min: 1024, Avg: 4096, Max: 16384}
	var sets []map[fp.FP]bool
	for v := 1; v <= 8; v++ {
		chunks, err := chunker.Split(chunker.FastCDC, readAll(t, g), params)
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[fp.FP]bool)
		for _, c := range chunks {
			set[fp.Of(c)] = true
		}
		sets = append(sets, set)
	}
	// Chunks in v2 but not v3: how many return in v4..v8?
	returned, departed := 0, 0
	for f := range sets[1] {
		if sets[2][f] {
			continue
		}
		departed++
		for v := 3; v < 8; v++ {
			if sets[v][f] {
				returned++
				break
			}
		}
	}
	if departed == 0 {
		t.Skip("no departed chunks at this scale")
	}
	// A small residue of returns is expected even in real datasets
	// (reverted edits); the Figure 3 property is that it is a small
	// minority.
	rate := float64(returned) / float64(departed)
	if rate > 0.10 {
		t.Fatalf("%.1f%% of departed chunks returned; Figure 3 expects a small minority", 100*rate)
	}
}

// TestFlapRateMakesChunksReturn checks the macos-style behaviour.
func TestFlapRateMakesChunksReturn(t *testing.T) {
	cfg := smallConfig()
	cfg.Versions = 6
	cfg.FlapRate = 0.15
	cfg.Files = 32
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := chunker.Params{Min: 1024, Avg: 4096, Max: 16384}
	var sets []map[fp.FP]bool
	for v := 1; v <= 4; v++ {
		chunks, err := chunker.Split(chunker.FastCDC, readAll(t, g), params)
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[fp.FP]bool)
		for _, c := range chunks {
			set[fp.Of(c)] = true
		}
		sets = append(sets, set)
	}
	// Chunks present in v2, absent in v3, back in v4.
	flapped := 0
	for f := range sets[1] {
		if !sets[2][f] && sets[3][f] {
			flapped++
		}
	}
	if flapped == 0 {
		t.Fatal("FlapRate 0.15 produced no skip-one-version chunks")
	}
}

func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		cfg, err := Preset(name, 4)
		if err != nil {
			t.Fatalf("Preset(%s): %v", name, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("preset %s invalid: %v", name, err)
		}
		if cfg.Name != name {
			t.Fatalf("preset name %q", cfg.Name)
		}
		// Scaled size should be within 2x of the request.
		if got := cfg.VersionBytes(); got < 2<<20 || got > 16<<20 {
			t.Fatalf("preset %s version size %d outside expected band", name, got)
		}
	}
	if _, err := Preset("nope", 4); err == nil {
		t.Fatal("unknown preset should fail")
	}
	cfg, err := Preset("macos", 4)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.FlapRate == 0 {
		t.Fatal("macos preset must flap")
	}
}

func TestGeneratorExhaustion(t *testing.T) {
	cfg := smallConfig()
	cfg.Versions = 2
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasNext() || g.Version() != 0 {
		t.Fatal("fresh generator state wrong")
	}
	readAll(t, g)
	readAll(t, g)
	if g.HasNext() {
		t.Fatal("generator should be exhausted")
	}
	if _, err := g.NextVersion(); err == nil {
		t.Fatal("NextVersion past the end should fail")
	}
	if g.Version() != 2 {
		t.Fatalf("Version = %d, want 2", g.Version())
	}
}

func TestVersionSizesStayNearConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Versions = 5
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(cfg.VersionBytes())
	for v := 1; v <= 5; v++ {
		got := float64(len(readAll(t, g)))
		if got < want/4 || got > want*4 {
			t.Fatalf("version %d size %.0f drifted from nominal %.0f", v, got, want)
		}
	}
}

// referenceVersion is the version g's last NextVersion produced, generated
// one block at a time from a source seeded with the block's seed, as the
// generator did before it kept block bytes: the definition of the stream.
func referenceVersion(g *Generator) []byte {
	var out []byte
	for _, f := range g.files {
		for _, b := range f.blocks {
			if b.flapped {
				continue
			}
			data := make([]byte, b.size)
			rand.New(rand.NewSource(int64(b.seed))).Read(data)
			out = append(out, data...)
		}
	}
	return out
}

// TestKeptBlocksMatchReseeding pins the generator's kept block bytes to
// the one-block-at-a-time definition: every preset, over enough versions
// that macos's flapped blocks leave and come back, read in odd-sized
// pieces so block edges fall mid-read.
func TestKeptBlocksMatchReseeding(t *testing.T) {
	for _, name := range PresetNames() {
		cfg, err := Preset(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Versions = 6
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		flapped := 0
		for v := 1; g.HasNext(); v++ {
			r, err := g.NextVersion()
			if err != nil {
				t.Fatal(err)
			}
			want := referenceVersion(g)
			got, err := io.ReadAll(iotest.HalfReader(r))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s v%d: %d bytes differ from the %d bytes block-by-block generation gives", name, v, len(got), len(want))
			}
			for _, f := range g.files {
				for _, b := range f.blocks {
					if b.flapped {
						flapped++
					}
				}
			}
		}
		if name == "macos" && flapped == 0 {
			t.Error("macos: no block flapped, so none returned")
		}
	}
}
