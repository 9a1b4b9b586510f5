package container

import (
	"fmt"
	"sort"
	"sync"
)

// Store persists containers. Implementations must be safe for concurrent
// use. Put snapshots the container: later caller mutations are not
// visible to the store (the backend adapter marshals immediately; the
// memory store deep-copies). Get returns an image that is never mutated
// again — the caller treats it as read-only and Clones before changing
// anything — so its Container.View slices stay valid while it is held and
// restore workers may read one image at once (the backend adapter returns
// a fresh in-place decode that owns the buffer read; the memory store
// returns the stored snapshot, which concurrent restores share).
//
// A store keeps no I/O counters: the restore driver's fetcher counts
// every container read a restore makes (the paper's §5.3 metric), once,
// and tests that need the store's own reads as a witness wrap it in
// containertest.Counting.
type Store interface {
	// Put writes or overwrites a snapshot of the container under its ID.
	Put(c *Container) error
	// Get reads a container by ID.
	Get(id ID) (*Container, error)
	// Delete removes a container. Deleting a missing ID is an error.
	Delete(id ID) error
	// Has reports whether the ID exists, without reading it. The
	// error is non-nil only when existence could not be determined (an
	// I/O failure); a missing container is (false, nil). Conflating the
	// two misleads fsck and GC into treating unreadable as absent.
	Has(id ID) (bool, error)
	// IDs returns all stored IDs in ascending order, or the error that
	// prevented enumerating them (an unreadable store must not look
	// empty).
	IDs() ([]ID, error)
	// Len returns the number of stored containers, or the error that
	// prevented counting them.
	Len() (int, error)
}

// QuarantineDir is the subdirectory (of the store root) that Quarantine
// moves corrupt images into.
const QuarantineDir = "quarantine"

// Quarantiner is implemented by stores that can move a corrupt
// container image aside instead of deleting it. Fsck's repair mode
// quarantines rather than removes, so no repair decision destroys the
// only copy of the bytes.
type Quarantiner interface {
	// Quarantine moves the container's image into the store's
	// quarantine area and returns where it went: the path on disk when
	// the store has one.
	Quarantine(id ID) (string, error)
}

// MemStore is an in-memory Store: a local system without a Dir, the
// experiments and the tests run on it.
type MemStore struct {
	mu         sync.Mutex
	containers map[ID]*Container
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{containers: make(map[ID]*Container)}
}

// Put implements Store.
func (s *MemStore) Put(c *Container) error {
	if c == nil {
		return fmt.Errorf("container: Put nil container")
	}
	if c.ID() == 0 {
		return fmt.Errorf("container: Put container with reserved ID 0")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Snapshot: the engine keeps mutating active containers after Put
	// (repacking, cold migration); sharing the image would race with
	// concurrent Gets from the restore path.
	s.containers[c.ID()] = c.Clone()
	return nil
}

// Get implements Store.
func (s *MemStore) Get(id ID) (*Container, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.containers[id]
	if !ok {
		return nil, fmt.Errorf("%w: container %d", ErrNotFound, id)
	}
	return c, nil
}

// Delete implements Store.
func (s *MemStore) Delete(id ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.containers[id]; !ok {
		return fmt.Errorf("%w: container %d", ErrNotFound, id)
	}
	delete(s.containers, id)
	return nil
}

// Has implements Store.
func (s *MemStore) Has(id ID) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.containers[id]
	return ok, nil
}

// IDs implements Store.
func (s *MemStore) IDs() ([]ID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]ID, 0, len(s.containers))
	for id := range s.containers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// Len implements Store.
func (s *MemStore) Len() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.containers), nil
}
