// Command chunkstat runs the paper's §3 heuristic experiment: track every
// chunk's version tag (the most recent backup version containing it)
// across a series of versions, and print how each tag's population evolves
// — the data behind Figure 3.
//
// Usage:
//
//	chunkstat -preset kernel -versions 8        # synthetic workload
//	chunkstat v1.bin v2.bin v3.bin ...          # explicit version files
//
// Both modes cut with TTTD, as the engines do, and print Figure 3's table
// (a row per version tag, a column per version processed).
//
// The expected shape (the paper's observation): tag-t population drops
// sharply at version t+1 and then plateaus — chunks that leave the stream
// do not come back, which is what justifies deduplicating only against the
// previous version(s).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"hidestore/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "chunkstat:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("chunkstat", flag.ContinueOnError)
	var (
		preset   = fs.String("preset", "", "synthetic workload preset (kernel|gcc|fslhomes|macos)")
		scale    = fs.Int("scale", 8, "per-version MB for -preset")
		versions = fs.Int("versions", 10, "version count for -preset")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := experiments.Options{ScaleMB: *scale, Versions: *versions}
	var src experiments.VersionSource
	if *preset != "" {
		var err error
		if src, err = experiments.PresetVersions(*preset, opts); err != nil {
			return err
		}
	} else {
		files := fs.Args()
		if len(files) < 2 {
			return errors.New("need -preset or at least two version files")
		}
		src = experiments.VersionSource{Name: "files", Count: len(files), Open: func(v int) (io.ReadCloser, error) {
			return os.Open(files[v-1])
		}}
	}
	res, err := experiments.Figure3(src, opts)
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	fmt.Printf("plateau ratio (tag 1, window 1): %.0f%%\n", res.PlateauRatio(1, 1)*100)
	fmt.Printf("plateau ratio (tag 1, window 2): %.0f%%\n", res.PlateauRatio(1, 2)*100)
	return nil
}
