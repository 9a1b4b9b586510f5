package pipeline

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// count emits 0..n-1 (forever when n < 0) until the pipeline stops it.
func count(n int) func(emit func(int) bool) error {
	return func(emit func(int) bool) error {
		for i := 0; i != n; i++ {
			if !emit(i) {
				return nil // cancelled, exit cleanly
			}
		}
		return nil
	}
}

func TestOrderedPreservesOrderAcrossWorkers(t *testing.T) {
	for _, workers := range []int{0, 1, 4} { // 0 defaults to one worker
		var got []int
		err := Ordered(context.Background(), workers, count(1000),
			func(v int) (int, error) { return v * 2, nil },
			func(v int) error { got = append(got, v); return nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1000 {
			t.Fatalf("%d workers: got %d items, want 1000", workers, len(got))
		}
		for i, v := range got {
			if v != 2*i {
				t.Fatalf("%d workers: item %d = %d, want %d", workers, i, v, 2*i)
			}
		}
	}
}

// TestOrderedReorderStaysBounded pins the sink's reorder bound under an
// adversarial schedule: the worker holding item 0 stalls, so every later
// item must park in the reorder map until the stall lifts. Without the
// credit cap the producer would keep producing and the parked set would
// grow with the stream (a whole backup, in the worst case); with it, the
// parked set can never exceed the in-flight ceiling no matter how unlucky
// the scheduling. Both engines ingest through this one function, so the
// bound is pinned here, once.
func TestOrderedReorderStaysBounded(t *testing.T) {
	const workers = 4
	creditCap := inFlight(workers)

	release := make(chan struct{})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	// Watchdog: if the bound (or the pipeline) wedges, fail visibly
	// instead of hanging the suite.
	timer := time.AfterFunc(30*time.Second, free)
	defer timer.Stop()

	maxParked, next := 0, 0
	// Far more items than the credit cap, so an unbounded map would
	// comfortably overshoot it during the stall.
	err := ordered(context.Background(), workers, count(20*creditCap),
		func(v int) (int, error) {
			if v == 0 {
				<-release
			}
			return v, nil
		},
		func(v int) error {
			if v != next {
				t.Errorf("sink saw item %d at position %d", v, next)
			}
			next++
			return nil
		},
		func(parked int) { // sink goroutine only; read after ordered returns
			if parked > maxParked {
				maxParked = parked
			}
			// Quiescence: item 0 holds one credit, so the map can reach at
			// most creditCap-1 entries. Once it does, every other credit is
			// parked — the adversarial peak — and the stall can end.
			if parked >= creditCap-1 {
				free()
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if maxParked > creditCap {
		t.Fatalf("reorder map reached %d entries, credit cap is %d", maxParked, creditCap)
	}
	if maxParked < creditCap-1 {
		t.Fatalf("stall parked only %d items (cap %d); the adversarial schedule did not engage", maxParked, creditCap)
	}
	if next != 20*creditCap {
		t.Fatalf("sink saw %d items, want %d", next, 20*creditCap)
	}
}

func TestErrorCancelsPipeline(t *testing.T) {
	boom := errors.New("boom")
	id := func(v int) (int, error) { return v, nil }
	drop := func(int) error { return nil }
	for name, run := range map[string]func() error{
		"producer": func() error {
			return Ordered(context.Background(), 2, func(emit func(int) bool) error { emit(1); return boom }, id, drop)
		},
		"worker": func() error {
			return Ordered(context.Background(), 2, count(-1), func(v int) (int, error) {
				if v == 10 {
					return 0, boom
				}
				return v, nil
			}, drop)
		},
		"sink": func() error {
			return Ordered(context.Background(), 2, count(-1), id, func(v int) error {
				if v == 5 {
					return boom
				}
				return nil
			})
		},
	} {
		// An unending producer only returns because the failure cancels it.
		if err := run(); !errors.Is(err, boom) {
			t.Errorf("%s failure: Ordered = %v, want boom", name, err)
		}
	}
}

func TestExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- Ordered(ctx, 2,
			func(emit func(int) bool) error {
				close(started)
				return count(-1)(emit)
			},
			func(v int) (int, error) { return v, nil },
			func(int) error {
				time.Sleep(time.Millisecond)
				return nil
			})
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Ordered = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline did not shut down after cancellation")
	}
}

func TestFirstErrorWins(t *testing.T) {
	first := errors.New("first")
	g, _ := WithContext(context.Background())
	release := make(chan struct{})
	g.Go(func() error { return first })
	g.Go(func() error { <-release; return errors.New("second") })
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := g.Wait(); !errors.Is(err, first) {
		t.Fatalf("Wait = %v, want first", err)
	}
}

func TestEmptyGroup(t *testing.T) {
	g, _ := WithContext(context.Background())
	if err := g.Wait(); err != nil {
		t.Fatalf("empty group Wait = %v", err)
	}
}
