// Command hidelint is hidestore's project-specific static-analysis
// gate. It walks every package in the module and enforces the
// invariants the restore-performance evaluation depends on (exact
// error surfacing, live context plumbing, store snapshot ownership,
// pooled-buffer ownership) as named checks with file:line diagnostics.
//
// Usage:
//
//	hidelint [-root dir] [-checks a,b,c] [-unused-suppressions]
//	         [-interprocedural=true|false] [-json] [-github] [-list]
//
// Exit status is 1 when any diagnostic survives suppression, 2 on
// operational failure (unparsable or untypecheckable tree).
//
// By default the run is interprocedural: a whole-module call graph
// with per-function summaries feeds the transitive halves of
// ignored-ctx, store-ownership, and pooled-escape. -interprocedural=false
// reverts every check to its single-function behavior.
//
// -json replaces the text findings on stdout with a JSON array of
// {file, line, col, check, message} objects, machine-readable for CI
// artifact consumers. -github additionally emits GitHub Actions
// ::error workflow annotations on stderr so findings surface inline on
// pull requests. Both leave the exit-code contract unchanged.
//
// With -unused-suppressions, every //hidelint:ignore directive that
// silenced no finding of the checks that ran is itself reported as an
// "unused-suppression" finding, so stale suppressions cannot outlive
// the code they excused.
//
// Suppress a finding with a trailing or preceding-line comment:
//
//	//hidelint:ignore <check> <reason>
//
// The reason is mandatory; a reasonless suppression is itself a
// finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hidestore/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hidelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", "", "module root to lint (default: nearest go.mod above the working directory)")
	checks := fs.String("checks", "", "comma-separated checks to run (default: all)")
	list := fs.Bool("list", false, "list registered checks and exit")
	unused := fs.Bool("unused-suppressions", false, "also flag hidelint:ignore comments that suppress nothing")
	interproc := fs.Bool("interprocedural", true, "build the whole-module call graph and run the cross-function halves of the checks")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout instead of text")
	github := fs.Bool("github", false, "also emit GitHub Actions ::error annotations on stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, c := range analysis.Checks() {
			sayf(stdout, "%-16s %s\n", c.Name, c.Doc)
		}
		return 0
	}
	dir := *root
	if dir == "" {
		var err error
		dir, err = findModuleRoot()
		if err != nil {
			sayf(stderr, "hidelint: %v\n", err)
			return 2
		}
	}
	var names []string
	if *checks != "" {
		names = strings.Split(*checks, ",")
	}
	pkgs, err := analysis.NewLoader().LoadModule(dir)
	if err != nil {
		sayf(stderr, "hidelint: %v\n", err)
		return 2
	}
	cfg := analysis.DefaultConfig()
	cfg.ReportUnusedSuppressions = *unused
	cfg.Interprocedural = *interproc
	diags, err := analysis.Run(pkgs, names, cfg)
	if err != nil {
		sayf(stderr, "hidelint: %v\n", err)
		return 2
	}
	for i := range diags {
		diags[i] = relativize(diags[i], dir)
	}
	if *jsonOut {
		writeJSON(stdout, diags)
	}
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		if !*jsonOut {
			sayf(stdout, "%s\n", d.String())
		}
		if *github {
			sayf(stderr, "::error file=%s,line=%d,col=%d::%s\n",
				filepath.ToSlash(d.Pos.Filename), d.Pos.Line, d.Pos.Column,
				githubEscape(d.Check+": "+d.Message))
		}
	}
	sayf(stderr, "hidelint: %d finding(s)\n", len(diags))
	return 1
}

// jsonDiag is the machine-readable finding shape; field order is the
// reading order of a diagnostic.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// writeJSON emits the findings as one JSON array on w. A clean run
// prints "[]", so artifact consumers never special-case the happy
// path.
func writeJSON(w io.Writer, diags []analysis.Diagnostic) {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:    filepath.ToSlash(d.Pos.Filename),
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Check:   d.Check,
			Message: d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//hidelint:ignore discarded-error best-effort console write; the exit code carries the verdict
	_ = enc.Encode(out)
}

// githubEscape encodes the characters the workflow-command parser
// treats as delimiters (the data portion runs to end-of-line).
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// sayf writes best-effort console output: a lint tool has no recourse
// when its own diagnostic stream fails, and its exit code is the
// contract.
func sayf(w io.Writer, format string, args ...any) {
	//hidelint:ignore discarded-error best-effort console write; the exit code carries the verdict
	_, _ = fmt.Fprintf(w, format, args...)
}

// relativize rewrites the diagnostic's filename relative to root so
// output is stable regardless of where the tree is checked out.
func relativize(d analysis.Diagnostic, root string) analysis.Diagnostic {
	if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		d.Pos.Filename = rel
	}
	return d
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
