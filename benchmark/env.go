package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// environment describes the host and the inputs, so that a number is never
// read without what produced it.
func environment(b bench, opts options, logical int64) envBlock {
	return envBlock{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPUModel:    cpuModel(),
		Kernel:      firstLine("/proc/sys/kernel/osrelease"),
		Commit:      commit(),
		Seed:        opts.seed,
		Versions:    opts.chain.versions,
		VersionMB:   opts.chain.versionMB,
		LogicalMB:   logical / mb,
		Sweeps:      b.sweeps,
		Concurrency: "closed loop, 1 client goroutine, engine workers at product defaults",
	}
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from the repository the benchmark
// directory sits in; the driver's checkouts are not repositories, and there
// it is "unknown".
func commit() string {
	git := filepath.Join("..", ".git")
	head := firstLine(filepath.Join(git, "HEAD"))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head // detached: the hash itself, or "unknown"
	}
	return firstLine(filepath.Join(git, ref))
}
