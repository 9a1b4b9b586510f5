package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway single-package module for the tool
// to lint.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module lintprobe\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "probe.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestUnsuppressedFindingExitsNonZero(t *testing.T) {
	dir := writeModule(t, `package lintprobe

import "errors"

func fallible() error { return errors.New("x") }

func oops() {
	fallible()
}
`)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", dir, "-checks", "discarded-error"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "probe.go:8:2: discarded-error:") {
		t.Errorf("diagnostic missing or mispositioned:\n%s", stdout.String())
	}
}

func TestSuppressedFindingExitsZero(t *testing.T) {
	dir := writeModule(t, `package lintprobe

import "errors"

func fallible() error { return errors.New("x") }

func oops() {
	//hidelint:ignore discarded-error exercising the suppression path in a test fixture
	fallible()
}
`)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", dir, "-checks", "discarded-error"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

func TestCleanTreeExitsZero(t *testing.T) {
	dir := writeModule(t, `package lintprobe

func fine() int { return 1 }
`)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

func TestListNamesEveryCheck(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	want := []string{"discarded-error", "ignored-ctx", "no-panic", "pooled-escape", "store-ownership"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-list names %v, want exactly %v:\n%s", got, want, stdout.String())
	}
}

// writeCoreModule lays out a module whose internal/core package
// launders I/O through an unexported helper: invisible to the
// single-function pass, caught by the call-graph pass.
func writeCoreModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module lintprobe\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	coreDir := filepath.Join(dir, "internal", "core")
	if err := os.MkdirAll(coreDir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package core

import "os"

func readAll(path string) ([]byte, error) { return os.ReadFile(path) }

// Load performs no I/O on its face.
func Load(path string) ([]byte, error) { return readAll(path) }
`
	if err := os.WriteFile(filepath.Join(coreDir, "core.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestInterproceduralFlagGatesTransitiveFindings(t *testing.T) {
	dir := writeCoreModule(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", dir, "-checks", "ignored-ctx"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("default run exit code = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "transitively performs I/O") {
		t.Errorf("transitive finding missing:\n%s", stdout.String())
	}
	stdout.Reset()
	stderr.Reset()
	code = run([]string{"-root", dir, "-checks", "ignored-ctx", "-interprocedural=false"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("-interprocedural=false exit code = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}

func TestJSONOutput(t *testing.T) {
	dir := writeCoreModule(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", dir, "-checks", "ignored-ctx", "-json"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr: %s", code, stderr.String())
	}
	var got []jsonDiag
	if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(got) != 1 {
		t.Fatalf("decoded %d findings, want 1: %+v", len(got), got)
	}
	d := got[0]
	if d.File != "internal/core/core.go" || d.Check != "ignored-ctx" || d.Line == 0 {
		t.Errorf("unexpected finding: %+v", d)
	}
	if strings.Contains(stdout.String(), "ignored-ctx:") && strings.Contains(stdout.String(), ".go:") &&
		strings.Contains(strings.SplitN(stdout.String(), "[", 2)[0], ":") {
		t.Errorf("-json stdout still carries text findings:\n%s", stdout.String())
	}
}

func TestJSONCleanRunEmitsEmptyArray(t *testing.T) {
	dir := writeModule(t, `package lintprobe

func fine() int { return 1 }
`)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", dir, "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr: %s", code, stderr.String())
	}
	if strings.TrimSpace(stdout.String()) != "[]" {
		t.Errorf("clean -json stdout = %q, want []", stdout.String())
	}
}

func TestGitHubAnnotations(t *testing.T) {
	dir := writeCoreModule(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-root", dir, "-checks", "ignored-ctx", "-github"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "::error file=internal/core/core.go,line=") {
		t.Errorf("annotation missing from stderr:\n%s", stderr.String())
	}
}

func TestGitHubEscape(t *testing.T) {
	got := githubEscape("50% of\r\nreads")
	want := "50%25 of%0D%0Areads"
	if got != want {
		t.Errorf("githubEscape = %q, want %q", got, want)
	}
}

func TestUnknownCheckExitsTwo(t *testing.T) {
	dir := writeModule(t, `package lintprobe
`)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-root", dir, "-checks", "bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}
