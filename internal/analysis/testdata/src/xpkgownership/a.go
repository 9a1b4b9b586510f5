// Package xpkgownership seeds the ownership violations that only the
// call-graph pass can see: shared Get results handed to mutating
// helpers in another package, laundered through helper return values,
// or parked where a far-side mutation is invisible.
package xpkgownership

import (
	"hidestore/internal/analysis/testdata/src/xpkgownership/stamp"
	"hidestore/internal/container"
	"hidestore/internal/fp"
)

type archive struct {
	keep *container.Container
}

// brandShared hands a shared snapshot to a helper the old pass never
// looked inside.
func brandShared(s container.Store, id container.ID) error {
	ctn, err := s.Get(id)
	if err != nil {
		return err
	}
	return stamp.Brand(ctn) // finding: the callee mutates its parameter
}

// fillShared: same hole through a second mutator and extra arguments.
func fillShared(s container.Store, id container.ID, f fp.FP) error {
	ctn, err := s.Get(id)
	if err != nil {
		return err
	}
	return stamp.Fill(ctn, f, []byte{1}) // finding: the callee mutates its parameter
}

// fetchThenMutate mutates a snapshot laundered through stamp.Fetch's
// return value; no method named Get appears in this body.
func fetchThenMutate(s container.Store, id container.ID) error {
	ctn, err := stamp.Fetch(s, id)
	if err != nil {
		return err
	}
	return ctn.SetCapacity(1 << 20) // finding: shared via the helper's summary
}

// escapeShapes parks a shared snapshot where a far-side mutation is
// invisible to this function.
func escapeShapes(s container.Store, id container.ID, a *archive, ch chan *container.Container) {
	ctn, _ := s.Get(id)
	a.keep = ctn                    // finding: escapes into a field
	ch <- ctn                       // finding: sent on a channel
	_ = []*container.Container{ctn} // finding: placed in a composite literal
}

// cloneForBrand snapshots before the handoff; silent.
func cloneForBrand(s container.Store, id container.ID) error {
	ctn, err := s.Get(id)
	if err != nil {
		return err
	}
	c := ctn.Clone()
	return stamp.Brand(c)
}
