package backend

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"hidestore/internal/durable"
)

// Mem is an in-memory Backend, the blob-level analogue of the memory
// stores: experiments and tests compose it under the remote simulator
// when no directory is configured.
type Mem struct {
	mu    sync.Mutex
	blobs map[string][]byte
}

var _ Backend = (*Mem)(nil)

// NewMem returns an empty in-memory backend.
func NewMem() *Mem {
	return &Mem{blobs: make(map[string][]byte)}
}

// Put implements Backend. The data is copied: callers may reuse their
// buffer, mirroring the snapshot semantics of the stores above.
func (m *Mem) Put(ctx context.Context, name string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("backend: empty blob name")
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	m.mu.Lock()
	m.blobs[name] = cp
	m.mu.Unlock()
	return nil
}

// Get implements Backend. The returned slice is a copy, made after the
// lock is released so concurrent Gets copy in parallel: a stored slice
// is never written, only replaced by Put or dropped by Delete.
func (m *Mem) Get(ctx context.Context, name string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	data, ok := m.blobs[name]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// Delete implements Backend.
func (m *Mem) Delete(ctx context.Context, name string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.blobs[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(m.blobs, name)
	return nil
}

// Has implements Backend.
func (m *Mem) Has(ctx context.Context, name string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.blobs[name]
	return ok, nil
}

// List implements Backend. As in Local, temp names (a torn write's
// debris) are invisible.
func (m *Mem) List(ctx context.Context, prefix string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.blobs))
	for name := range m.blobs {
		base := name[strings.LastIndexByte(name, '/')+1:]
		if strings.HasPrefix(name, prefix) && !strings.HasPrefix(base, durable.TempPrefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}
