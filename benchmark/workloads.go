package main

import (
	"bytes"
	"fmt"
	"time"

	"hidestore"
	"hidestore/internal/backend"
	"hidestore/internal/workload"
)

// chain is the size of one version chain. The driver allows ~35 s per run,
// set-up included, so the chain is 8 versions of 32 MB (~256 MB logical)
// rather than the 24 x 32 MB a free-standing run would use; the versions
// were kept large and the chain shortened because the exact metrics vary
// less from seed to seed with large versions. See README.md.
type chain struct {
	versions  int
	versionMB int
}

var defaultChain = chain{versions: 8, versionMB: 32}

// remoteLatency is the simulated round-trip of the kernel-remote workload.
const remoteLatency = 2 * time.Millisecond

// bench is one benchmark workload: a version-chain preset and the store
// configuration it is driven against. Every Config field not named here stays
// zero, i.e. at the product default (tttd, 2/4/16 KB chunks, FAA, prefetch
// 8, serial restore).
type bench struct {
	name   string
	preset string
	// sweeps is how many times a round restores the whole chain; fixed per
	// workload (never adaptive) so the restore phase of the memory-backed
	// workloads is long enough to time.
	sweeps int
	// baseline marks the destor-style engine (ddfs index, capping rewriter).
	baseline bool
	// open opens a fresh store; dir is an empty directory the store may use.
	open func(dir string) (*hidestore.System, error)
	// layerBackend opens the backend stack the workload's stores sit on, for
	// the per-layer pass.
	layerBackend func(dir string) (backend.Backend, error)
}

func memBackend(string) (backend.Backend, error) { return backend.NewMem(), nil }

var benches = []bench{
	{
		name: "kernel-mem", preset: "kernel", sweeps: 4,
		open:         func(string) (*hidestore.System, error) { return hidestore.Open(hidestore.Config{}) },
		layerBackend: memBackend,
	},
	{
		name: "gcc-local", preset: "gcc", sweeps: 1,
		open: func(dir string) (*hidestore.System, error) {
			return hidestore.Open(hidestore.Config{Dir: dir})
		},
		layerBackend: func(dir string) (backend.Backend, error) { return backend.NewLocal(dir) },
	},
	{
		name: "kernel-remote", preset: "kernel", sweeps: 1,
		open: func(string) (*hidestore.System, error) {
			return hidestore.Open(hidestore.Config{Backend: hidestore.BackendConfig{
				Kind: "remote", Latency: remoteLatency, Seed: 1,
			}})
		},
		layerBackend: func(string) (backend.Backend, error) {
			top, _, err := backend.NewStack(backend.NewMem(), backend.StackOptions{
				Sim:   backend.SimOptions{Latency: remoteLatency, Seed: 1},
				Retry: backend.RetryOptions{Seed: 1},
			})
			return top, err
		},
	},
	{
		name: "kernel-ddfs", preset: "kernel", sweeps: 4, baseline: true,
		open: func(string) (*hidestore.System, error) {
			return hidestore.OpenBaseline(hidestore.BaselineConfig{Index: "ddfs", Rewriter: "capping"})
		},
		layerBackend: memBackend,
	},
}

func benchByName(name string) (bench, error) {
	for _, b := range benches {
		if b.name == name {
			return b, nil
		}
	}
	return bench{}, fmt.Errorf("unknown workload %q", name)
}

// materialize generates every version of the chain into memory, so that no
// timed region ever includes workload generation. The seed argument is mixed
// into the preset's own seed; the program under test only sees the bytes.
func materialize(preset string, seed int64, c chain) ([][]byte, error) {
	cfg, err := workload.Preset(preset, c.versionMB)
	if err != nil {
		return nil, err
	}
	cfg.Versions = c.versions
	cfg.Seed ^= seed
	gen, err := workload.New(cfg)
	if err != nil {
		return nil, err
	}
	streams := make([][]byte, 0, c.versions)
	for gen.HasNext() {
		r, err := gen.NextVersion()
		if err != nil {
			return nil, err
		}
		// Sized up front: a version drifts a few percent around the
		// preset's mean, and regrowing a 16 MB buffer would be timed as
		// set-up.
		buf := bytes.NewBuffer(make([]byte, 0, cfg.VersionBytes()*5/4))
		if _, err := buf.ReadFrom(r); err != nil {
			return nil, err
		}
		streams = append(streams, buf.Bytes())
	}
	return streams, nil
}

func totalBytes(streams [][]byte) int64 {
	var n int64
	for _, s := range streams {
		n += int64(len(s))
	}
	return n
}
