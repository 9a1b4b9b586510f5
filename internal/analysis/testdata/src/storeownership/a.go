// Package storeownership seeds the PR 1 MemStore.Put defect (a Put
// that retains the caller's *Container) and the call-site half of the
// contract: mutating a container obtained from Get.
package storeownership

import (
	"hidestore/internal/container"
	"hidestore/internal/fp"
)

// leakyStore implements container.Store but keeps the caller's pointer
// instead of a snapshot — later caller mutations corrupt the "stored"
// image.
type leakyStore struct {
	m   map[container.ID]*container.Container
	all []*container.Container
}

func (s *leakyStore) Put(c *container.Container) error {
	s.m[c.ID()] = c          // finding: retained in a map
	s.all = append(s.all, c) // finding: retained via append
	return nil
}

func (s *leakyStore) Get(id container.ID) (*container.Container, error) { return s.m[id], nil }
func (s *leakyStore) Delete(id container.ID) error                      { delete(s.m, id); return nil }
func (s *leakyStore) Has(id container.ID) (bool, error)                 { _, ok := s.m[id]; return ok, nil }
func (s *leakyStore) IDs() ([]container.ID, error)                      { return nil, nil }
func (s *leakyStore) Len() (int, error)                                 { return len(s.m), nil }

// okStore snapshots on Put; must stay silent.
type okStore struct{ *leakyStore }

func (s *okStore) Put(c *container.Container) error {
	s.m[c.ID()] = c.Clone()
	return nil
}

// mutateShared mutates a container fetched from a store: the image is
// shared with the store and with concurrent restores.
func mutateShared(s container.Store, id container.ID, f fp.FP) error {
	ctn, err := s.Get(id)
	if err != nil {
		return err
	}
	if err := ctn.Remove(f); err != nil { // finding: mutator on shared image
		return err
	}
	return ctn.Add(f, []byte{1}) // finding: mutator on shared image
}

// cloneFirst rebinds to a private copy before mutating; silent.
func cloneFirst(s container.Store, id container.ID) (*container.Container, error) {
	ctn, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	ctn = ctn.Clone()
	return ctn, ctn.SetCapacity(1 << 20)
}
