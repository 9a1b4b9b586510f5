package fault

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"hidestore/internal/backend"
	"hidestore/internal/container"
	"hidestore/internal/fp"
	"hidestore/internal/recipe"
)

var ctx = context.Background()

func containerImage(t *testing.T, id container.ID) []byte {
	t.Helper()
	c := container.New(id)
	for i := 0; i < 2; i++ {
		data := []byte{byte(id), byte(i), 0xAB}
		if err := c.Add(fp.Of(data), data); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func recipeImage(t *testing.T, version int) []byte {
	t.Helper()
	r := recipe.New(version)
	data := []byte("x")
	r.Append(fp.Of(data), uint32(len(data)), 0)
	buf, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestInjectorDeadProcess: once a Fail fault trips, every later op
// fails too — a dead process issues no further writes — and the op
// counter is one sequence across the wrappers of every plane.
func TestInjectorDeadProcess(t *testing.T) {
	inj := NewInjector()
	inj.Arm(Fail, 2)
	containers, recipes, state := NewBackend(backend.NewMem(), inj), NewBackend(backend.NewMem(), inj), NewBackend(backend.NewMem(), inj)
	if err := containers.Put(ctx, "c_1.ctn", []byte("a")); err != nil {
		t.Fatalf("op 1 before the fault failed: %v", err)
	}
	if err := recipes.Put(ctx, "r_1.rcp", []byte("b")); !errors.Is(err, ErrInjected) {
		t.Fatalf("op 2 = %v, want ErrInjected", err)
	}
	if !inj.Tripped() {
		t.Fatal("injector did not record the trip")
	}
	if err := state.Put(ctx, "state.hds", []byte("c")); !errors.Is(err, ErrInjected) {
		t.Fatalf("op 3 after the crash = %v, want ErrInjected (dead process)", err)
	}
	if got := inj.Ops(); got != 3 {
		t.Fatalf("Ops = %d, want 3", got)
	}
	want := []string{"Put c_1.ctn", "Put r_1.rcp", "Put state.hds"}
	if log := inj.OpLog(); fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("OpLog = %v, want %v", log, want)
	}
}

// TestInjectorNoSpace: the ENOSPC model is transient — only op N fails.
func TestInjectorNoSpace(t *testing.T) {
	inj := NewInjector()
	inj.Arm(NoSpace, 2)
	b := NewBackend(backend.NewMem(), inj)
	if err := b.Put(ctx, "c_1.ctn", []byte("a")); err != nil {
		t.Fatal(err)
	}
	err := b.Put(ctx, "c_2.ctn", []byte("b"))
	if !errors.Is(err, ErrNoSpace) || !errors.Is(err, ErrInjected) {
		t.Fatalf("op 2 = %v, want ErrNoSpace wrapping ErrInjected", err)
	}
	if err := b.Put(ctx, "c_3.ctn", []byte("c")); err != nil {
		t.Fatalf("op 3 after transient ENOSPC = %v, want success", err)
	}
	if has, err := b.Has(ctx, "c_2.ctn"); err != nil || has {
		t.Fatal("the failed op left the blob behind")
	}
}

// TestInjectorDisarmAndRearm: Arm resets counters so one injector
// drives many matrix cells.
func TestInjectorDisarmAndRearm(t *testing.T) {
	inj := NewInjector()
	inj.Arm(Fail, 1)
	b := NewBackend(backend.NewMem(), inj)
	if err := b.Put(ctx, "c_1.ctn", []byte("a")); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed op = %v", err)
	}
	inj.Arm(None, 0)
	if err := b.Put(ctx, "c_1.ctn", []byte("a")); err != nil {
		t.Fatalf("disarmed op = %v", err)
	}
	if inj.Tripped() {
		t.Fatal("Arm did not reset the tripped flag")
	}
}

// faultCell is one cell of TestBackendFaults: a fault.Backend over an
// inner backend, and the blob under test.
type faultCell struct {
	inj    *Injector
	b      *Backend
	inner  backend.Backend
	reopen func(t *testing.T) // reopens a directory-backed inner backend; nil in memory
	name   string
	data   []byte
	decode func([]byte) error // nil: the plane's bytes are not checked here
}

// TestBackendFaults drives every fault kind through one fault.Backend
// over each inner backend, for a container image, a recipe and the
// state blob alike:
//
//   - fail: the op fails with nothing written, and so does every later
//     op (a Delete at the fault leaves the blob in place);
//   - nospace: only op N fails;
//   - torn: the final name stays untouched and invisible to List, half
//     the image sits under tornName, and reopening a directory sweeps it;
//   - corruptread: the read returns the stored image with one byte
//     flipped, the decoder's CRC rejects it, and the damage persists.
func TestBackendFaults(t *testing.T) {
	blobs := []struct {
		plane, name string
		data        func(*testing.T) []byte
		decode      func([]byte) error
	}{
		{"container", backend.ContainerName(3), func(t *testing.T) []byte { return containerImage(t, 3) },
			func(b []byte) error { _, err := container.UnmarshalBinary(b); return err }},
		{"recipe", backend.RecipeName(2), func(t *testing.T) []byte { return recipeImage(t, 2) },
			func(b []byte) error { _, err := recipe.UnmarshalBinary(b); return err }},
		{"state", "state.hds", func(*testing.T) []byte { return []byte("engine state image") }, nil},
	}
	inners := []struct {
		name string
		open func(t *testing.T) (backend.Backend, func(t *testing.T))
	}{
		{"mem", func(*testing.T) (backend.Backend, func(t *testing.T)) {
			return backend.NewMem(), nil
		}},
		{"local", func(t *testing.T) (backend.Backend, func(t *testing.T)) {
			dir := filepath.Join(t.TempDir(), "root")
			l, err := backend.NewLocal(dir)
			if err != nil {
				t.Fatal(err)
			}
			return l, func(t *testing.T) {
				if _, err := backend.NewLocal(dir); err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	kinds := []struct {
		kind Kind
		run  func(t *testing.T, c faultCell)
	}{
		{Fail, func(t *testing.T, c faultCell) {
			c.inj.Arm(Fail, 2)
			if err := c.b.Put(ctx, c.name, c.data); err != nil {
				t.Fatalf("op 1: %v", err)
			}
			if err := c.b.Delete(ctx, c.name); !errors.Is(err, ErrInjected) {
				t.Fatalf("Delete at the fault = %v, want ErrInjected", err)
			}
			if err := c.b.Put(ctx, c.name+".next", c.data); !errors.Is(err, ErrInjected) {
				t.Fatalf("Put after the fault = %v, want ErrInjected (dead process)", err)
			}
			if got, err := c.inner.Get(ctx, c.name); err != nil || !bytes.Equal(got, c.data) {
				t.Fatalf("failed Delete touched the blob: %v", err)
			}
			if has, err := c.inner.Has(ctx, c.name+".next"); err != nil || has {
				t.Fatalf("a dead process wrote: %v %v", has, err)
			}
		}},
		{NoSpace, func(t *testing.T, c faultCell) {
			c.inj.Arm(NoSpace, 1)
			if err := c.b.Put(ctx, c.name, c.data); !errors.Is(err, ErrNoSpace) {
				t.Fatalf("Put at the fault = %v, want ErrNoSpace", err)
			}
			if has, err := c.inner.Has(ctx, c.name); err != nil || has {
				t.Fatalf("failed Put left the blob: %v %v", has, err)
			}
			if err := c.b.Put(ctx, c.name, c.data); err != nil {
				t.Fatalf("Put after a transient ENOSPC: %v", err)
			}
		}},
		{Torn, func(t *testing.T, c faultCell) {
			c.inj.Arm(Torn, 1)
			if err := c.b.Put(ctx, c.name, c.data); !errors.Is(err, ErrInjected) {
				t.Fatalf("torn Put = %v, want ErrInjected", err)
			}
			if has, err := c.b.Has(ctx, c.name); err != nil || has {
				t.Fatalf("torn write exposed the final name: %v %v", has, err)
			}
			if names, err := c.b.List(ctx, ""); err != nil || len(names) != 0 {
				t.Fatalf("List after a torn write = %v, %v; want nothing", names, err)
			}
			debris, err := c.inner.Get(ctx, tornName(c.name))
			if err != nil || len(debris) != len(c.data)/2 {
				t.Fatalf("torn debris: %d bytes, %v; want %d", len(debris), err, len(c.data)/2)
			}
			if c.reopen != nil {
				c.reopen(t)
				if has, err := c.inner.Has(ctx, tornName(c.name)); err != nil || has {
					t.Fatalf("torn debris survived the reopen sweep: %v %v", has, err)
				}
			}
		}},
		{CorruptRead, func(t *testing.T, c faultCell) {
			if err := c.b.Put(ctx, c.name, c.data); err != nil {
				t.Fatal(err)
			}
			c.inj.Arm(CorruptRead, 1)
			for read := 1; read <= 2; read++ {
				got, err := c.b.Get(ctx, c.name)
				if err != nil {
					t.Fatal(err)
				}
				diff := 0
				for i := range got {
					if got[i] != c.data[i] {
						diff++
					}
				}
				if len(got) != len(c.data) || diff != 1 {
					t.Fatalf("read %d: %d bytes differ, want one flipped byte", read, diff)
				}
				if c.decode != nil && c.decode(got) == nil {
					t.Fatalf("read %d: the corrupt image decoded", read)
				}
				if !c.inj.Tripped() {
					t.Fatal("CorruptRead did not trip")
				}
			}
			if got := c.inj.Reads(); got != 2 {
				t.Fatalf("Reads = %d, want 2", got)
			}
		}},
	}
	for _, k := range kinds {
		for _, in := range inners {
			for _, bl := range blobs {
				t.Run(fmt.Sprintf("%s/%s/%s", k.kind, in.name, bl.plane), func(t *testing.T) {
					inner, reopen := in.open(t)
					inj := NewInjector()
					c := faultCell{inj: inj, b: NewBackend(inner, inj), inner: inner, reopen: reopen,
						name: bl.name, data: bl.data(t), decode: bl.decode}
					k.run(t, c)
				})
			}
		}
	}
}
