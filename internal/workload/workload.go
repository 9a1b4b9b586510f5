// Package workload generates synthetic versioned backup streams that
// stand in for the paper's datasets (Table 1: linux-kernel, gcc, fslhomes,
// macos), which are multi-hundred-GB corpora we cannot ship.
//
// The generator models a project as a set of files made of content blocks.
// Each backup version mutates the previous one the way software releases
// and user homedirs do: some blocks are overwritten with brand-new
// content, some files grow, new files appear, old files disappear. Block
// content is a pure function of a 64-bit seed, so:
//
//   - unchanged blocks reproduce byte-identical regions → duplicate chunks
//     across versions (the ~90 % adjacent-version redundancy of Table 1);
//   - overwritten blocks get fresh seeds that are never reused → chunks
//     that leave the stream do not come back, which is exactly the
//     Figure 3 observation HiDeStore is built on;
//   - the macos preset sets FlapRate > 0, making some blocks skip one
//     version and return — the Figure 3d anomaly that forces HiDeStore's
//     two-version fingerprint-cache window.
//
// Everything is deterministic given Config.Seed: the same configuration
// yields the same byte streams on every machine, which makes the
// experiment harness reproducible.
package workload

import (
	"fmt"
	"io"
	"math/rand"
)

// Config describes a synthetic dataset.
type Config struct {
	// Name labels the workload in reports.
	Name string
	// Versions is how many backup versions the generator will produce.
	Versions int
	// Files is the number of files in version 1.
	Files int
	// BlocksPerFile is the mean number of content blocks per file.
	BlocksPerFile int
	// BlockSize is the mean block size in bytes (blocks vary ±50 %).
	BlockSize int
	// ModifyRate is the per-version probability that a block is
	// overwritten with new content.
	ModifyRate float64
	// InsertRate is the per-version probability that a new block is
	// inserted after an existing one (shifts the rest of the file, which
	// is what content-defined chunking exists to absorb).
	InsertRate float64
	// DeleteRate is the per-version probability that a block is removed.
	DeleteRate float64
	// FileChurn is the per-version fraction of files added and removed.
	FileChurn float64
	// FlapRate is the per-version probability that a block goes missing
	// for exactly one version and then returns (macos-style).
	FlapRate float64
	// Seed makes the dataset reproducible.
	Seed int64
}

// Validate checks configuration invariants.
func (c Config) Validate() error {
	switch {
	case c.Versions <= 0:
		return fmt.Errorf("workload: Versions must be positive, got %d", c.Versions)
	case c.Files <= 0 || c.BlocksPerFile <= 0 || c.BlockSize <= 0:
		return fmt.Errorf("workload: Files/BlocksPerFile/BlockSize must be positive")
	case c.ModifyRate < 0 || c.ModifyRate > 1:
		return fmt.Errorf("workload: ModifyRate %v out of [0,1]", c.ModifyRate)
	case c.InsertRate < 0 || c.InsertRate > 1:
		return fmt.Errorf("workload: InsertRate %v out of [0,1]", c.InsertRate)
	case c.DeleteRate < 0 || c.DeleteRate > 1:
		return fmt.Errorf("workload: DeleteRate %v out of [0,1]", c.DeleteRate)
	case c.FileChurn < 0 || c.FileChurn > 1:
		return fmt.Errorf("workload: FileChurn %v out of [0,1]", c.FileChurn)
	case c.FlapRate < 0 || c.FlapRate > 1:
		return fmt.Errorf("workload: FlapRate %v out of [0,1]", c.FlapRate)
	case c.DeleteRate+c.ModifyRate+c.FlapRate > 1:
		return fmt.Errorf("workload: Delete+Modify+Flap rates exceed 1")
	default:
		return nil
	}
}

// VersionBytes estimates the mean bytes per version.
func (c Config) VersionBytes() int64 {
	return int64(c.Files) * int64(c.BlocksPerFile) * int64(c.BlockSize)
}

// Preset returns the named dataset configuration, scaled so one version is
// roughly scaleMB megabytes (the paper's versions are 0.4-50 GB; the
// defaults here keep full multi-version runs laptop-sized while preserving
// each dataset's redundancy structure). Valid names: "kernel", "gcc",
// "fslhomes", "macos".
func Preset(name string, scaleMB int) (Config, error) {
	if scaleMB <= 0 {
		scaleMB = 8
	}
	base := Config{
		Name:          name,
		BlockSize:     8 * 1024,
		BlocksPerFile: 16,
		Seed:          0x4D494444, // "MIDD"
	}
	switch name {
	case "kernel":
		// 158 versions, 91.5 % dedup ratio: low churn, steady point
		// releases. Rates calibrated so a full run of the generator
		// reproduces Table 1's ratio within ~1 point.
		base.Versions = 158
		base.ModifyRate = 0.030
		base.InsertRate = 0.003
		base.DeleteRate = 0.002
		base.FileChurn = 0.008
	case "gcc":
		// 175 versions, 78.8 % dedup ratio: the fastest-moving dataset.
		base.Versions = 175
		base.ModifyRate = 0.095
		base.InsertRate = 0.008
		base.DeleteRate = 0.004
		base.FileChurn = 0.02
	case "fslhomes":
		// 102 versions, 92.2 % dedup ratio: user homedir snapshots.
		base.Versions = 102
		base.ModifyRate = 0.022
		base.InsertRate = 0.004
		base.DeleteRate = 0.002
		base.FileChurn = 0.010
	case "macos":
		// 25 versions, 89.6 % dedup ratio, and changes that straddle two
		// versions (Figure 3d) — the FlapRate is what distinguishes it.
		base.Versions = 25
		base.ModifyRate = 0.020
		base.InsertRate = 0.003
		base.DeleteRate = 0.002
		base.FileChurn = 0.008
		base.FlapRate = 0.02
	default:
		return Config{}, fmt.Errorf("workload: unknown preset %q", name)
	}
	base.Files = scaleMB * (1 << 20) / (base.BlocksPerFile * base.BlockSize)
	if base.Files < 4 {
		base.Files = 4
	}
	return base, nil
}

// PresetNames lists the available presets in the paper's Table 1 order.
func PresetNames() []string { return []string{"kernel", "gcc", "fslhomes", "macos"} }

// block is one content region. Its bytes are a pure function of (seed,
// size).
type block struct {
	seed uint64
	size int
	// flapped marks a block absent from the current version only.
	flapped bool
}

// file is an ordered list of blocks.
type file struct {
	id     uint64
	blocks []block
}

// Generator produces successive version streams. Not safe for concurrent
// use.
//
// A block's bytes are generated once: the generator keeps them, by seed,
// for every block still in the dataset, flapped ones included, and a
// stream copies an unchanged block from there instead of seeding a source
// for it again. That holds about one version's bytes in memory.
type Generator struct {
	cfg      Config
	rng      *rand.Rand
	files    []*file
	nextSeed uint64
	version  int
	// known maps a block seed to the block's bytes.
	known map[uint64][]byte
}

// New creates a generator positioned before version 1.
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		nextSeed: 1,
	}
	for i := 0; i < cfg.Files; i++ {
		g.files = append(g.files, g.newFile())
	}
	return g, nil
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// Version returns the number of the most recently generated version
// (0 before the first NextVersion call).
func (g *Generator) Version() int { return g.version }

// HasNext reports whether more versions remain.
func (g *Generator) HasNext() bool { return g.version < g.cfg.Versions }

func (g *Generator) newFile() *file {
	n := g.cfg.BlocksPerFile/2 + g.rng.Intn(g.cfg.BlocksPerFile+1)
	if n < 1 {
		n = 1
	}
	f := &file{id: uint64(g.rng.Int63())}
	f.blocks = make([]block, n)
	for i := range f.blocks {
		f.blocks[i] = g.newBlock()
	}
	return f
}

func (g *Generator) newBlock() block {
	g.nextSeed++
	size := g.cfg.BlockSize/2 + g.rng.Intn(g.cfg.BlockSize+1)
	if size < 64 {
		size = 64
	}
	return block{seed: g.nextSeed, size: size}
}

// NextVersion mutates the dataset into its next version and returns a
// reader for that version's backup stream. The reader must be fully
// consumed before the next call.
func (g *Generator) NextVersion() (io.Reader, error) {
	if !g.HasNext() {
		return nil, fmt.Errorf("workload: all %d versions generated", g.cfg.Versions)
	}
	g.version++
	if g.version > 1 {
		g.mutate()
	}
	// Keep the bytes of every block still in the dataset; the stream adds
	// the new ones as it generates them.
	known := make(map[uint64][]byte, len(g.known))
	for _, f := range g.files {
		for _, b := range f.blocks {
			if data, ok := g.known[b.seed]; ok {
				known[b.seed] = data
			}
		}
	}
	g.known = known
	return newStream(g.files, known), nil
}

// mutate applies one version's worth of changes.
func (g *Generator) mutate() {
	// File churn: remove and add whole files.
	churn := int(float64(len(g.files)) * g.cfg.FileChurn)
	for i := 0; i < churn && len(g.files) > 1; i++ {
		victim := g.rng.Intn(len(g.files))
		g.files = append(g.files[:victim], g.files[victim+1:]...)
	}
	for i := 0; i < churn; i++ {
		g.files = append(g.files, g.newFile())
	}
	// Block-level edits.
	for _, f := range g.files {
		// A fresh slice: appending in place would let insertions overtake
		// the read cursor and corrupt blocks not yet visited.
		out := make([]block, 0, len(f.blocks)+4)
		for _, b := range f.blocks {
			// A block that flapped last version returns now.
			if b.flapped {
				b.flapped = false
				out = append(out, b)
				continue
			}
			r := g.rng.Float64()
			switch {
			case r < g.cfg.DeleteRate:
				continue // block gone for good
			case r < g.cfg.DeleteRate+g.cfg.ModifyRate:
				out = append(out, g.newBlock()) // fresh content, new seed
			case r < g.cfg.DeleteRate+g.cfg.ModifyRate+g.cfg.FlapRate:
				b.flapped = true // absent this version, back next version
				out = append(out, b)
			default:
				out = append(out, b)
			}
			if g.rng.Float64() < g.cfg.InsertRate {
				out = append(out, g.newBlock())
			}
		}
		f.blocks = out
		if len(f.blocks) == 0 {
			f.blocks = []block{g.newBlock()}
		}
	}
}

// stream lazily materializes a version's bytes.
type stream struct {
	blocks []block
	cur    int
	// known is the generator's block bytes by seed; rest is what is left
	// to read of the current block's.
	known map[uint64][]byte
	rest  []byte
	rng   *rand.Rand
}

func newStream(files []*file, known map[uint64][]byte) *stream {
	var blocks []block
	for _, f := range files {
		for _, b := range f.blocks {
			if !b.flapped {
				blocks = append(blocks, b)
			}
		}
	}
	return &stream{blocks: blocks, cur: -1, known: known}
}

// Read implements io.Reader, generating the bytes of a block not seen
// before when the stream reaches it.
func (s *stream) Read(p []byte) (int, error) {
	for len(s.rest) == 0 {
		s.cur++
		if s.cur >= len(s.blocks) {
			return 0, io.EOF
		}
		s.rest = s.block(s.blocks[s.cur])
	}
	n := copy(p, s.rest)
	s.rest = s.rest[n:]
	return n, nil
}

// block returns b's bytes: the first b.size bytes a source seeded with
// b.seed yields.
func (s *stream) block(b block) []byte {
	if data, ok := s.known[b.seed]; ok {
		return data
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(int64(b.seed)))
	} else {
		s.rng.Seed(int64(b.seed))
	}
	data := make([]byte, b.size)
	s.rng.Read(data)
	s.known[b.seed] = data
	return data
}
