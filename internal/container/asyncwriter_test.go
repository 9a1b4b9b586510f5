package container

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// planeStore is the writer's test double: a MemStore that counts, records
// the order Puts and Deletes started in and the peak number running at
// once, can hold every call at a gate, and fails the calls for chosen IDs.
type planeStore struct {
	*MemStore
	gate chan struct{} // non-nil: every Put/Delete waits here
	fail map[ID]error

	mu      sync.Mutex
	started []ID
	running int
	peak    int
	puts    map[ID]int
}

func newPlaneStore() *planeStore {
	return &planeStore{MemStore: NewMemStore(), puts: make(map[ID]int)}
}

func (s *planeStore) enter(id ID) {
	s.mu.Lock()
	s.started = append(s.started, id)
	s.running++
	if s.running > s.peak {
		s.peak = s.running
	}
	s.mu.Unlock()
	if s.gate != nil {
		<-s.gate
	}
}

func (s *planeStore) leave() {
	s.mu.Lock()
	s.running--
	s.mu.Unlock()
}

func (s *planeStore) Put(c *Container) error {
	s.enter(c.ID())
	defer s.leave()
	if err := s.fail[c.ID()]; err != nil {
		return err
	}
	if err := s.MemStore.Put(c); err != nil {
		return err
	}
	s.mu.Lock()
	s.puts[c.ID()]++
	s.mu.Unlock()
	return nil
}

func (s *planeStore) Delete(id ID) error {
	s.enter(id)
	defer s.leave()
	if err := s.fail[id]; err != nil {
		return err
	}
	return s.MemStore.Delete(id)
}

func (s *planeStore) startedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.started)
}

// waitStarted blocks until n calls have entered the store.
func (s *planeStore) waitStarted(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.startedCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d store calls started", s.startedCount(), n)
		}
		runtime.Gosched()
	}
}

func sealed(t *testing.T, id ID) *Container {
	t.Helper()
	c := NewWithCapacity(id, 1<<20)
	if err := c.Add([20]byte{byte(id), byte(id >> 8)}, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAsyncWriterLandsEveryImageOnce: at every width, each image handed
// over is put exactly once, the flushed callback sees each, and no more
// than width Store.Puts ever run together.
func TestAsyncWriterLandsEveryImageOnce(t *testing.T) {
	for _, depth := range []int{-1, 1, 2, 4, 16} {
		st := newPlaneStore()
		var mu sync.Mutex
		flushes := 0
		w := NewAsyncWriter(context.Background(), depth, func(*Container, time.Time, time.Duration) {
			mu.Lock()
			flushes++
			mu.Unlock()
		})
		const n = 200
		for id := ID(1); id <= n; id++ {
			if err := w.Put(st, sealed(t, id)); err != nil {
				t.Fatalf("depth %d: Put %d: %v", depth, id, err)
			}
		}
		if err := w.Barrier(); err != nil {
			t.Fatalf("depth %d: Barrier: %v", depth, err)
		}
		for id := ID(1); id <= n; id++ {
			if st.puts[id] != 1 {
				t.Fatalf("depth %d: image %d put %d times, want 1", depth, id, st.puts[id])
			}
		}
		if flushes != n {
			t.Fatalf("depth %d: flushed ran %d times, want %d", depth, flushes, n)
		}
		if st.peak > CommitWidth(depth) {
			t.Fatalf("depth %d: %d Puts in flight at once, want at most %d", depth, st.peak, CommitWidth(depth))
		}
	}
}

// TestAsyncWriterReachesItsWidth holds every Put at a gate: the writer
// must get exactly width of them running, and block the next.
func TestAsyncWriterReachesItsWidth(t *testing.T) {
	st := newPlaneStore()
	st.gate = make(chan struct{})
	w := NewAsyncWriter(context.Background(), 3, nil)
	images := []*Container{sealed(t, 1), sealed(t, 2), sealed(t, 3), sealed(t, 4)}
	done := make(chan error, 1)
	go func() {
		for _, c := range images {
			if err := w.Put(st, c); err != nil {
				done <- err
				return
			}
		}
		done <- w.Barrier()
	}()
	st.waitStarted(t, 3)
	select {
	case err := <-done:
		t.Fatalf("fourth Put returned (%v) with three commits still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	if n := st.startedCount(); n != 3 {
		t.Fatalf("%d Puts started, want the width of 3", n)
	}
	close(st.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st.peak != 3 || w.Blocked() <= 0 {
		t.Fatalf("peak %d in flight, blocked %v; want 3 and a positive wait", st.peak, w.Blocked())
	}
}

// TestAsyncWriterOrderedAtDepthOne: one slot (and the inline mode) commits
// in Put order, which the op-indexed crash matrix depends on.
func TestAsyncWriterOrderedAtDepthOne(t *testing.T) {
	for _, depth := range []int{1, -1} {
		st := newPlaneStore()
		w := NewAsyncWriter(context.Background(), depth, nil)
		for id := ID(1); id <= 50; id++ {
			if err := w.Put(st, sealed(t, id)); err != nil {
				t.Fatal(err)
			}
			if depth < 0 && st.puts[id] != 1 {
				t.Fatalf("inline Put %d returned before the image landed", id)
			}
		}
		if err := w.Barrier(); err != nil {
			t.Fatal(err)
		}
		for i, id := range st.started {
			if id != ID(i+1) {
				t.Fatalf("depth %d: commit order %v: Put order not preserved", depth, st.started)
			}
		}
	}
}

// TestAsyncWriterFirstErrorWins: two commits fail; the first failure, and
// only it, is what the next Put and every Barrier report, and no
// Store.Put starts once it is known.
func TestAsyncWriterFirstErrorWins(t *testing.T) {
	boom, later := errors.New("disk full"), errors.New("later failure")
	st := newPlaneStore()
	st.fail = map[ID]error{2: boom, 3: later}
	w := NewAsyncWriter(context.Background(), 1, nil)
	if err := w.Put(st, sealed(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Put(st, sealed(t, 2)); err != nil {
		t.Fatal(err)
	}
	// Width 1: the third Put gets the slot only after image 2 failed.
	if err := w.Put(st, sealed(t, 3)); !errors.Is(err, boom) {
		t.Fatalf("Put after the failure = %v, want %v", err, boom)
	}
	before := st.startedCount()
	for id := ID(4); id <= 10; id++ {
		if err := w.Put(st, sealed(t, id)); !errors.Is(err, boom) {
			t.Fatalf("Put %d = %v, want %v", id, err, boom)
		}
	}
	for i := 0; i < 2; i++ {
		if err := w.Barrier(); !errors.Is(err, boom) {
			t.Fatalf("Barrier = %v, want %v", err, boom)
		}
	}
	if after := st.startedCount(); after != before || after != 2 {
		t.Fatalf("%d Store.Puts started (%d when the error surfaced), want 2", after, before)
	}
}

// TestAsyncWriterErrorSurfacesAtBarrier: with room in the plane the
// failing commit is still in flight when Put returns; Barrier reports it.
func TestAsyncWriterErrorSurfacesAtBarrier(t *testing.T) {
	boom := errors.New("disk full")
	st := newPlaneStore()
	st.gate = make(chan struct{})
	st.fail = map[ID]error{2: boom}
	w := NewAsyncWriter(context.Background(), 4, nil)
	for id := ID(1); id <= 3; id++ {
		if err := w.Put(st, sealed(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	close(st.gate)
	if err := w.Barrier(); !errors.Is(err, boom) {
		t.Fatalf("Barrier = %v, want %v", err, boom)
	}
	if err := w.Put(st, sealed(t, 4)); !errors.Is(err, boom) {
		t.Fatalf("Put after a failed Barrier = %v, want %v", err, boom)
	}
}

// TestAsyncWriterCancelUnblocks: a Put waiting for a slot returns as soon
// as the context is cancelled, the refusal is remembered, and Barrier
// returns once the commits already in the store come back.
func TestAsyncWriterCancelUnblocks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	st := newPlaneStore()
	st.gate = make(chan struct{})
	w := NewAsyncWriter(ctx, 1, nil)
	if err := w.Put(st, sealed(t, 1)); err != nil {
		t.Fatal(err)
	}
	st.waitStarted(t, 1)
	blocked := make(chan error, 1)
	second := sealed(t, 2)
	go func() { blocked <- w.Put(st, second) }()
	select {
	case err := <-blocked:
		t.Fatalf("Put returned %v with the only slot taken", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-blocked:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Put = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Put blocked past context cancellation")
	}
	close(st.gate) // the in-flight commit cannot be interrupted, only awaited
	if err := w.Barrier(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Barrier after a refused image = %v, want context.Canceled", err)
	}
	if st.startedCount() != 1 {
		t.Fatalf("%d Store.Puts started, want only the one before the cancel", st.startedCount())
	}
	// Cancelled before the first Put: nothing reaches the store.
	st2 := newPlaneStore()
	w2 := NewAsyncWriter(ctx, 4, nil)
	if err := w2.Put(st2, sealed(t, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Put on a dead context = %v, want context.Canceled", err)
	}
	if st2.startedCount() != 0 {
		t.Fatal("a Store.Put started on a dead context")
	}
}

// TestAsyncWriterJoinsItsGoroutines: Barrier leaves no goroutine behind,
// on success and on failure, and the writer is usable between fences.
func TestAsyncWriterJoinsItsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, fail := range []bool{false, true} {
		st := newPlaneStore()
		if fail {
			st.fail = map[ID]error{7: errors.New("disk full")}
		}
		w := NewAsyncWriter(context.Background(), 4, nil)
		for fence := 0; fence < 3; fence++ {
			for i := 0; i < 20; i++ {
				// A failing writer refuses; the refusal is the test's
				// other half.
				_ = w.Put(st, sealed(t, ID(fence*20+i+1)))
			}
			if err := w.Barrier(); (err != nil) != fail {
				t.Fatalf("fail=%t fence %d: Barrier = %v", fail, fence, err)
			}
			if st.running != 0 {
				t.Fatalf("fail=%t fence %d: %d Puts still running after Barrier", fail, fence, st.running)
			}
		}
	}
	// A joined goroutine has called Done but may not have been reaped yet.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the writers ran", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestDeleteAll: every ID goes exactly once at any width; after a failure
// the IDs not deleted come back in input order with the first error.
func TestDeleteAll(t *testing.T) {
	for _, width := range []int{1, 4} {
		st := newPlaneStore()
		var ids []ID
		for id := ID(1); id <= 40; id++ {
			if err := st.MemStore.Put(sealed(t, id)); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		left, err := DeleteAll(st, ids, width)
		if err != nil || len(left) != 0 {
			t.Fatalf("width %d: DeleteAll = %v, %v", width, left, err)
		}
		if n, _ := st.Len(); n != 0 || st.peak > width {
			t.Fatalf("width %d: %d containers left, peak %d in flight", width, n, st.peak)
		}
	}

	boom := errors.New("io error")
	st := newPlaneStore()
	st.fail = map[ID]error{3: boom}
	ids := []ID{1, 2, 3, 4, 5}
	for _, id := range ids {
		if err := st.MemStore.Put(sealed(t, id)); err != nil {
			t.Fatal(err)
		}
	}
	left, err := DeleteAll(st, ids, 1)
	if !errors.Is(err, boom) {
		t.Fatalf("DeleteAll = %v, want %v", err, boom)
	}
	if len(left) != 3 || left[0] != 3 || left[1] != 4 || left[2] != 5 {
		t.Fatalf("left = %v, want [3 4 5]: width 1 stops at the failure", left)
	}
	for _, id := range left {
		if ok, _ := st.Has(id); !ok {
			t.Fatalf("container %d reported undeleted but is gone", id)
		}
	}
	if left, err := DeleteAll(st, nil, 4); left != nil || err != nil {
		t.Fatalf("DeleteAll of nothing = %v, %v", left, err)
	}
}
