package recipe

import (
	"fmt"
	"sort"
	"sync"
)

// Store persists recipes keyed by version number. Implementations must be
// safe for concurrent use. Put transfers ownership; Get returns a recipe
// the caller may mutate only if it re-Puts it afterwards (the memory store
// hands back a private copy, the backend adapter a fresh decode).
type Store interface {
	Put(r *Recipe) error
	Get(version int) (*Recipe, error)
	Delete(version int) error
	// Has reports whether the version exists; the error is non-nil only
	// when existence could not be determined (an I/O failure).
	Has(version int) (bool, error)
	// Versions returns stored version numbers in ascending order, or
	// the error that prevented enumerating them — recovery and GC
	// delete containers based on this list, so a silently empty answer
	// from an unreadable directory would be catastrophic.
	Versions() ([]int, error)
	Len() (int, error)
}

// MemStore is an in-memory recipe store.
type MemStore struct {
	mu      sync.Mutex
	recipes map[int]*Recipe
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{recipes: make(map[int]*Recipe)}
}

// Put implements Store.
func (s *MemStore) Put(r *Recipe) error {
	if r == nil {
		return fmt.Errorf("recipe: Put nil recipe")
	}
	if r.Version <= 0 {
		return fmt.Errorf("recipe: Put version %d (must be positive)", r.Version)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recipes[r.Version] = r
	return nil
}

// Get implements Store. The returned recipe is a deep copy so callers can
// mutate it (e.g. the recipe-update algorithm) and re-Put.
func (s *MemStore) Get(version int) (*Recipe, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.recipes[version]
	if !ok {
		return nil, fmt.Errorf("%w: version %d", ErrNotFound, version)
	}
	return r.Clone(), nil
}

// Delete implements Store.
func (s *MemStore) Delete(version int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.recipes[version]; !ok {
		return fmt.Errorf("%w: version %d", ErrNotFound, version)
	}
	delete(s.recipes, version)
	return nil
}

// Has implements Store.
func (s *MemStore) Has(version int) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.recipes[version]
	return ok, nil
}

// Versions implements Store.
func (s *MemStore) Versions() ([]int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.recipes))
	for v := range s.recipes {
		out = append(out, v)
	}
	sort.Ints(out)
	return out, nil
}

// Len implements Store.
func (s *MemStore) Len() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recipes), nil
}
