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
	"strconv"

	"hidestore/internal/chunker"
	"hidestore/internal/cleanup"
	"hidestore/internal/experiments"
	"hidestore/internal/fp"
	"hidestore/internal/metrics"
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
	if *preset != "" {
		res, err := experiments.Figure3(*preset, experiments.Options{
			ScaleMB:  *scale,
			Versions: *versions,
		})
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		fmt.Printf("plateau ratio (tag 1, window 1): %.0f%%\n", res.PlateauRatio(1, 1)*100)
		fmt.Printf("plateau ratio (tag 1, window 2): %.0f%%\n", res.PlateauRatio(1, 2)*100)
		return nil
	}
	files := fs.Args()
	if len(files) < 2 {
		return errors.New("need -preset or at least two version files")
	}
	return fromFiles(files)
}

func fromFiles(files []string) error {
	params := chunker.DefaultParams()
	tags := make(map[fp.FP]int)
	counts := make([][]int, len(files))
	for v, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		ch, err := chunker.New(chunker.TTTD, f, params)
		if err != nil {
			cleanup.Close(f)
			return err
		}
		for {
			data, err := ch.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				cleanup.Close(f)
				return err
			}
			tags[fp.Of(data)] = v + 1
		}
		if err := f.Close(); err != nil {
			return err
		}
		census := make([]int, len(files)+1)
		for _, tag := range tags {
			census[tag]++
		}
		counts[v] = census
	}
	t := metrics.NewTable("chunks per version tag", tagHeaders(len(files))...)
	for v := 0; v < len(files); v++ {
		row := []string{"after v" + strconv.Itoa(v+1)}
		for tag := 1; tag <= len(files); tag++ {
			if tag > v+1 {
				row = append(row, "-")
			} else {
				row = append(row, strconv.Itoa(counts[v][tag]))
			}
		}
		t.AddRow(row...)
	}
	fmt.Println(t.Render())
	return nil
}

func tagHeaders(n int) []string {
	out := []string{"processed"}
	for tag := 1; tag <= n; tag++ {
		out = append(out, "V"+strconv.Itoa(tag))
	}
	return out
}
