// Command tracegen materializes the synthetic versioned workloads so they
// can be inspected or fed to external tools.
//
// Usage:
//
//	tracegen -preset kernel -scale 8 -versions 10 -out /tmp/kernel
//	tracegen -preset macos -stats          # chunk statistics only
//
// With -out, each version is written to <out>/v<N>.bin. With -stats, no
// files are written; per-version chunk counts and adjacent-version
// redundancy, cut with TTTD as the engines cut, are printed instead.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"hidestore/internal/chunker"
	"hidestore/internal/fp"
	"hidestore/internal/metrics"
	"hidestore/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		preset   = fs.String("preset", "kernel", "workload preset: kernel|gcc|fslhomes|macos")
		scale    = fs.Int("scale", 8, "approximate per-version size in MB")
		versions = fs.Int("versions", 0, "versions to generate (0 = preset's count)")
		out      = fs.String("out", "", "output directory (v<N>.bin per version)")
		stats    = fs.Bool("stats", false, "print chunk statistics instead of writing files")
		seed     = fs.Int64("seed", 0, "override the preset's seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := workload.Preset(*preset, *scale)
	if err != nil {
		return err
	}
	if *versions > 0 && *versions < cfg.Versions {
		cfg.Versions = *versions
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if !*stats && *out == "" {
		return errors.New("need -out DIR or -stats")
	}
	g, err := workload.New(cfg)
	if err != nil {
		return err
	}
	if *stats {
		return printStats(g)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for g.HasNext() {
		r, err := g.NextVersion()
		if err != nil {
			return err
		}
		path := filepath.Join(*out, "v"+strconv.Itoa(g.Version())+".bin")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		n, err := io.Copy(f, r)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("%s: %d bytes\n", path, n)
	}
	return nil
}

func printStats(g *workload.Generator) error {
	params := chunker.DefaultParams()
	t := metrics.NewTable(fmt.Sprintf("workload %s", g.Config().Name),
		"version", "bytes", "chunks", "redundancy vs prev", "new chunks")
	prev := make(map[fp.FP]struct{})
	for g.HasNext() {
		r, err := g.NextVersion()
		if err != nil {
			return err
		}
		ch, err := chunker.New(chunker.TTTD, r, params)
		if err != nil {
			return err
		}
		cur := make(map[fp.FP]struct{})
		var bytesTotal, sharedBytes uint64
		var chunks, newChunks int
		for {
			data, err := ch.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			f := fp.Of(data)
			chunks++
			bytesTotal += uint64(len(data))
			if _, ok := prev[f]; ok {
				sharedBytes += uint64(len(data))
			}
			if _, ok := cur[f]; !ok {
				cur[f] = struct{}{}
			}
			if _, ok := prev[f]; !ok {
				newChunks++
			}
		}
		redundancy := "-"
		if g.Version() > 1 && bytesTotal > 0 {
			redundancy = metrics.FormatPercent(float64(sharedBytes) / float64(bytesTotal))
		}
		t.AddRow(strconv.Itoa(g.Version()),
			metrics.FormatBytes(bytesTotal),
			strconv.Itoa(chunks),
			redundancy,
			strconv.Itoa(newChunks))
		prev = cur
	}
	fmt.Println(t.Render())
	return nil
}
