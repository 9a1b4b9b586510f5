package restorecache

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"hidestore/internal/recipe"
)

// restoreBoth restores entries with c through the serial assembler and
// through the parallel one, and returns both outputs.
func restoreBoth(t *testing.T, c Cache, entries []recipe.Entry, fetch Fetcher) (serial, parallel []byte, serialErr, parallelErr error) {
	t.Helper()
	var s, p bytes.Buffer
	_, serialErr = c.Restore(context.Background(), entries, fetch, &s)
	_, parallelErr = c.Restore(context.Background(), entries, fetch,
		NewParallelWriter(&p, ParallelOptions{Workers: 4}))
	return s.Bytes(), p.Bytes(), serialErr, parallelErr
}

// TestRunsBreakWherePhysicalOrderDoes: the assemblers gather physically
// adjacent chunks into one copy, so the recipe that can fool them reads
// one container's chunks backwards, skips, and repeats a chunk twice in a
// row — each of those must end the run, or bytes shift.
func TestRunsBreakWherePhysicalOrderDoes(t *testing.T) {
	store, base, payloads := fixture(t, 2, 8, 300)
	a, b := base[:8], base[8:]
	entries := []recipe.Entry{
		a[0], a[1], a[2], // a run
		a[2], a[2], // the same chunk again, twice: not adjacent to itself
		a[7], a[6], a[5], // backwards
		a[3], a[5], // a gap
		b[0], b[1], // another container
		a[3], a[4], // back, resuming where b[1]'s offset would also fit
		b[2], b[3], b[3],
	}
	want := expected(entries, payloads)
	for _, c := range allCaches() {
		t.Run(c.Name(), func(t *testing.T) {
			serial, parallel, serr, perr := restoreBoth(t, c, entries, StoreFetcher(store))
			if serr != nil || perr != nil {
				t.Fatalf("serial: %v, parallel: %v", serr, perr)
			}
			if !bytes.Equal(serial, want) {
				t.Fatal("serial assembly differs from the recipe's bytes")
			}
			if !bytes.Equal(parallel, want) {
				t.Fatal("parallel assembly differs from the recipe's bytes")
			}
		})
	}
}

// TestRecipeSizeMismatchFails: a recipe whose Size disagrees with the
// container's entry fails the restore; it never emits shifted bytes.
func TestRecipeSizeMismatchFails(t *testing.T) {
	store, entries, _ := fixture(t, 2, 8, 300)
	for _, delta := range []int{-1, 1} {
		bad := append([]recipe.Entry(nil), entries...)
		bad[5].Size = uint32(300 + delta)
		for _, c := range allCaches() {
			_, _, serr, perr := restoreBoth(t, c, bad, StoreFetcher(store))
			for mode, err := range map[string]error{"serial": serr, "parallel": perr} {
				if err == nil || !strings.Contains(err.Error(), "size 300, recipe says") {
					t.Fatalf("%s/%s, size %+d: err = %v, want the size mismatch", c.Name(), mode, delta, err)
				}
			}
		}
	}
}

// TestRestoreAllocsPerChunk is the restore path's work counter: chunk
// bytes move from the fetched image to the span buffer with no buffer of
// their own, so allocations scale with containers and spans, never with
// chunks. Before the assemblers borrowed views the serial figure was
// above 1.
func TestRestoreAllocsPerChunk(t *testing.T) {
	store, entries, _ := fixture(t, 8, 1024, 1024) // 8 MB in 8192 chunks
	// Half in storage order, half against it: long runs and one-chunk runs.
	for i, j := len(entries)/2, len(entries)-1; i < j; i, j = i+1, j-1 {
		entries[i], entries[j] = entries[j], entries[i]
	}
	faa := NewFAA(0)
	restore := func(w io.Writer) func() {
		return func() {
			if _, err := faa.Restore(context.Background(), entries, StoreFetcher(store), w); err != nil {
				t.Fatal(err)
			}
		}
	}
	chunks := float64(len(entries))
	serial := testing.AllocsPerRun(5, restore(io.Discard))
	if serial/chunks > 0.05 {
		t.Errorf("serial FAA restore: %.3f allocs/chunk, want at most 0.05", serial/chunks)
	}
	// The parallel assembler allocates per span: the span, its growing
	// instruction list, its buffer.
	spans := float64(len(entries)*1024/spanTargetBytes + 1)
	pw := NewParallelWriter(io.Discard, ParallelOptions{Workers: 2})
	parallel := testing.AllocsPerRun(5, restore(pw))
	if parallel > 32*spans || parallel/chunks > 0.05 {
		t.Errorf("parallel FAA restore: %.0f allocs for %.0f spans (%.3f/chunk), want at most 32 per span",
			parallel, spans, parallel/chunks)
	}
	t.Logf("%d chunks: serial %.0f allocs, parallel %.0f allocs over %.0f spans", len(entries), serial, parallel, spans)
}
