package restorecache

import (
	"bytes"
	"context"
	"io"
	"runtime"
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
	// Once its SpanPool holds a warm assembler (after AllocsPerRun's first
	// run), a parallel restore allocates about what a serial one does: its
	// spans, their buffers and the goroutines' bodies are reused, and only
	// the work channel is made per restore.
	pw := NewParallelWriter(io.Discard, ParallelOptions{Workers: 2, Spans: &SpanPool{}})
	parallel := testing.AllocsPerRun(5, restore(pw))
	if parallel > serial+4 {
		t.Errorf("parallel FAA restore: %.0f allocs, serial %.0f; want at most 4 more per restore", parallel, serial)
	}
	t.Logf("%d chunks: serial %.0f allocs, parallel %.0f", len(entries), serial, parallel)
}

// TestParallelRestoreBytesAllocated: span buffers are recycled, so a
// parallel restore allocates for its reorder window — window + 1 spans,
// each a buffer and an instruction list — and not for its size, and
// further restores through the same SpanPool allocate none. Allocating
// each span's buffer afresh allocates the restored size, 64 MB here, on
// every restore.
func TestParallelRestoreBytesAllocated(t *testing.T) {
	store, base, _ := fixture(t, 8, 1024, 1024)
	var entries []recipe.Entry
	for i := 0; i < 8; i++ {
		entries = append(entries, base...) // 64 MB restored from 8 MB of containers
	}
	const workers = 2
	window := 2*workers + 2
	perSpan := uint64(spanTargetBytes + spanTargetBytes/4)
	limit := uint64(window+1) * perSpan
	pw := NewParallelWriter(io.Discard, ParallelOptions{Workers: workers, Spans: &SpanPool{}})
	faa := NewFAA(0)
	var total uint64
	for i := 0; i < 4; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stats, err := faa.Restore(context.Background(), entries, StoreFetcher(store), pw)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if stats.BytesRestored != 64<<20 {
			t.Fatalf("restored %d bytes, want 64 MB", stats.BytesRestored)
		}
		n := after.TotalAlloc - before.TotalAlloc
		total += n
		t.Logf("restore %d: %d bytes allocated", i+1, n)
		if i == 0 && n > limit {
			t.Errorf("a 64 MB parallel restore allocated %d bytes, want at most %d (window %d + 1 spans)", n, limit, window)
		}
	}
	if slack := 3 * perSpan / 4; total > limit+slack {
		t.Errorf("four 64 MB restores through one SpanPool allocated %d bytes, want at most %d", total, limit+slack)
	}
}
