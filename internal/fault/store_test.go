package fault

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hidestore/internal/backend"
	"hidestore/internal/container"
	"hidestore/internal/durable"
	"hidestore/internal/fp"
	"hidestore/internal/recipe"
)

// The tests in this file drive faults through the typed stores the
// engines use — backend.ContainerStore and backend.RecipeStore over a
// fault.Backend — and check the files a directory backend leaves.

func fillContainer(t *testing.T, id container.ID, chunks int) *container.Container {
	t.Helper()
	c := container.New(id)
	for i := 0; i < chunks; i++ {
		data := []byte{byte(id), byte(i), 0xAB}
		if err := c.Add(fp.Of(data), data); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// faultyLocal opens a Local rooted at a fresh directory and wraps it.
func faultyLocal(t *testing.T, inj *Injector) (*Backend, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "root")
	l, err := backend.NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	return NewBackend(l, inj), dir
}

// TestTornLeavesTempDebris: a torn container write leaves a half-written
// temp file beside the final path and never touches the final path.
func TestTornLeavesTempDebris(t *testing.T) {
	inj := NewInjector()
	b, dir := faultyLocal(t, inj)
	s := backend.NewContainerStore(b, dir)
	inj.Arm(Torn, 1)
	if err := s.Put(fillContainer(t, 7, 2)); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn op = %v", err)
	}
	if has, err := s.Has(7); err != nil || has {
		t.Fatal("torn write exposed the final path")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	debris := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), durable.TempPrefix) {
			debris++
		} else {
			t.Errorf("unexpected file %s after a torn write", e.Name())
		}
	}
	if debris != 1 {
		t.Fatalf("%d temp files after a torn write, want 1", debris)
	}
	// Reopening the store sweeps the debris — the recovery contract.
	if _, err := backend.NewLocal(dir); err != nil {
		t.Fatal(err)
	}
	n, err := durable.SweepTemp(dir)
	if err != nil || n != 0 {
		t.Fatalf("debris survived the reopen sweep: n=%d err=%v", n, err)
	}
}

// TestCorruptReadFlipsOnDisk: CorruptRead damages the stored image so
// the store's CRC rejects it — and the damage is persistent.
func TestCorruptReadFlipsOnDisk(t *testing.T) {
	inj := NewInjector()
	b, dir := faultyLocal(t, inj)
	s := backend.NewContainerStore(b, dir)
	if err := s.Put(fillContainer(t, 3, 2)); err != nil {
		t.Fatal(err)
	}
	inj.Arm(CorruptRead, 1)
	if _, err := s.Get(3); err == nil {
		t.Fatal("corrupted read returned a container")
	}
	if !inj.Tripped() {
		t.Fatal("CorruptRead did not trip")
	}
	// Bit rot persists on disk: a later clean read, even through a
	// freshly opened store, still fails.
	inj.Arm(None, 0)
	if _, err := s.Get(3); err == nil {
		t.Fatal("corruption vanished on the second read")
	}
	l, err := backend.NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := backend.NewContainerStore(l, dir).Get(3); err == nil {
		t.Fatal("corruption vanished after a reopen")
	}
}

// TestRecipeStoreInjection: recipe ops draw from the same counter as
// container ops, so one index addresses the whole commit sequence.
func TestRecipeStoreInjection(t *testing.T) {
	inj := NewInjector()
	inj.Arm(Fail, 2)
	cs := backend.NewContainerStore(NewBackend(backend.NewMem(), inj), "")
	rs := backend.NewRecipeStore(NewBackend(backend.NewMem(), inj))
	if err := cs.Put(fillContainer(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	rec := recipe.New(1)
	data := []byte("x")
	rec.Append(fp.Of(data), uint32(len(data)), 0)
	if err := rs.Put(rec); !errors.Is(err, ErrInjected) {
		t.Fatalf("recipe op 2 = %v, want ErrInjected", err)
	}
	if has, err := rs.Has(1); err != nil || has {
		t.Fatalf("the failed recipe op left the blob: %v %v", has, err)
	}
	want := "Put " + backend.RecipeName(1)
	if log := inj.OpLog(); len(log) != 2 || log[1] != want {
		t.Fatalf("OpLog = %v, want op 2 %q", log, want)
	}
}

// TestWrapWriteTorn: a torn state write leaves temp debris and an
// untouched (here: absent) state file.
func TestWrapWriteTorn(t *testing.T) {
	inj := NewInjector()
	b, dir := faultyLocal(t, inj)
	inj.Arm(Torn, 1)
	if err := b.Put(ctx, "state.hds", []byte("0123456789")); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write = %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "state.hds")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("torn write touched the final path: %v", err)
	}
	n, err := durable.SweepTemp(dir)
	if err != nil || n != 1 {
		t.Fatalf("sweep found %d temp files (err %v), want 1", n, err)
	}
}
