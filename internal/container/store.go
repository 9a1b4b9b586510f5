package container

import (
	"fmt"
	"sort"
	"sync"
)

// StoreStats counts I/O operations against a container store. Reads are
// the quantity that matters for the paper's evaluation: the restore speed
// factor (§5.3) is MB restored per container read.
type StoreStats struct {
	Reads        uint64
	Writes       uint64
	Deletes      uint64
	BytesRead    uint64
	BytesWritten uint64
}

// Store persists containers. Implementations must be safe for concurrent
// use. Put snapshots the container: later caller mutations are not
// visible to the store (file-backed stores marshal immediately; the
// memory store deep-copies). Get returns an image that is never mutated
// again — the caller treats it as read-only and Clones before changing
// anything — so its Container.View slices stay valid while it is held and
// restore workers may read one image at once (file-backed stores return a
// fresh in-place decode that owns the buffer read; the memory store
// returns the stored snapshot, which concurrent restores share).
type Store interface {
	// Put writes or overwrites a snapshot of the container under its ID.
	Put(c *Container) error
	// Get reads a container by ID, counting one container read.
	Get(id ID) (*Container, error)
	// Delete removes a container. Deleting a missing ID is an error.
	Delete(id ID) error
	// Has reports whether the ID exists, without counting a read. The
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
	// Stats returns cumulative I/O counters.
	Stats() StoreStats
	// ResetStats zeroes the I/O counters (between experiment phases).
	ResetStats()
}

// Quarantiner is implemented by stores that can move a corrupt
// container image aside instead of deleting it. Fsck's repair mode
// quarantines rather than removes, so no repair decision destroys the
// only copy of the bytes.
type Quarantiner interface {
	// Quarantine moves the container's on-disk image into the store's
	// quarantine area and returns the destination path.
	Quarantine(id ID) (string, error)
}

// MemStore is an in-memory Store, used by experiments where only I/O
// *counts* matter and by tests.
type MemStore struct {
	mu         sync.Mutex
	containers map[ID]*Container
	stats      StoreStats
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
	s.stats.Writes++
	s.stats.BytesWritten += uint64(c.LiveSize())
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
	s.stats.Reads++
	s.stats.BytesRead += uint64(c.LiveSize())
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
	s.stats.Deletes++
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

// Stats implements Store.
func (s *MemStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats implements Store.
func (s *MemStore) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = StoreStats{}
}

// TotalLiveBytes sums the live payload across all stored containers —
// the "space actually consumed" figure used for deduplication ratios.
func (s *MemStore) TotalLiveBytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total uint64
	for _, c := range s.containers {
		total += uint64(c.LiveSize())
	}
	return total
}
