package fault

import (
	"context"
	"fmt"
	"path"

	"hidestore/internal/backend"
	"hidestore/internal/durable"
)

// Backend wraps any backend.Backend with fault injection. Every Put and
// Delete draws one op index and every Get one read index from the shared
// Injector, whichever plane the blob belongs to (container image, recipe
// or state), so one wrapper per plane puts the whole commit sequence on
// one counter. Has and List pass through uncounted: they mutate nothing
// and the engines never treat them as reads of an image.
type Backend struct {
	inner backend.Backend
	inj   *Injector
}

var _ backend.Backend = (*Backend)(nil)

// NewBackend wraps inner.
func NewBackend(inner backend.Backend, inj *Injector) *Backend {
	return &Backend{inner: inner, inj: inj}
}

// Put implements backend.Backend. Torn writes the first half of data
// under tornName(name) and fails: the debris an interrupted atomic
// write leaves, never visible under name itself.
func (b *Backend) Put(ctx context.Context, name string, data []byte) error {
	op := "Put " + name
	switch act := b.inj.begin(op); act {
	case actProceed:
		return b.inner.Put(ctx, name, data)
	case actTorn:
		if err := b.inner.Put(ctx, tornName(name), data[:len(data)/2]); err != nil {
			return fmt.Errorf("%w (torn debris not written: %v)", errFor(act, op), err)
		}
		return errFor(act, op)
	default:
		return errFor(act, op)
	}
}

// Get implements backend.Backend. At the armed CorruptRead index the
// stored blob is read, one byte in its middle flipped, and the result
// Put back through the inner backend before the read proceeds, so the
// damage is persistent and reaches every layer below (a memory map, a
// directory, a remote stack and its read cache alike).
func (b *Backend) Get(ctx context.Context, name string) ([]byte, error) {
	if b.inj.beginRead("Get "+name) == actCorrupt {
		if buf, err := b.inner.Get(ctx, name); err == nil && len(buf) > 0 {
			buf[len(buf)/2] ^= 0xFF
			if err := b.inner.Put(ctx, name, buf); err != nil {
				return nil, fmt.Errorf("fault: corrupt %s: %w", name, err)
			}
		}
	}
	return b.inner.Get(ctx, name)
}

// Delete implements backend.Backend. An unlink is atomic, so Torn
// degrades to Fail.
func (b *Backend) Delete(ctx context.Context, name string) error {
	op := "Delete " + name
	if act := b.inj.begin(op); act != actProceed {
		return errFor(act, op)
	}
	return b.inner.Delete(ctx, name)
}

// Has implements backend.Backend.
func (b *Backend) Has(ctx context.Context, name string) (bool, error) {
	return b.inner.Has(ctx, name)
}

// List implements backend.Backend.
func (b *Backend) List(ctx context.Context, prefix string) ([]string, error) {
	return b.inner.List(ctx, prefix)
}

// tornName is where a torn Put of name leaves its half image: a
// durable.TempPrefix name in the same directory, which List never
// returns and backend.NewLocal sweeps at open.
func tornName(name string) string {
	dir, file := path.Split(name)
	return dir + durable.TempPrefix + "torn-" + file
}
