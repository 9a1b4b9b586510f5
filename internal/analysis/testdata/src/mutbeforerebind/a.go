// Package mutbeforerebind seeds the order-sensitive half of the
// store-ownership contract: the flow-insensitive pass forgives any
// function containing a `ctn = ctn.Clone()` rebind, wherever it sits;
// the CFG pass only forgives the paths the rebind dominates.
package mutbeforerebind

import "hidestore/internal/container"

// mutateThenClone mutates the shared snapshot BEFORE rebinding to a
// clone. AST-order rebind tracking sees the rebind and drops the
// variable; the CFG knows the first SetCapacity ran on the shared image.
func mutateThenClone(s container.Store, id container.ID) (*container.Container, error) {
	ctn, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	if err := ctn.SetCapacity(1 << 20); err != nil { // finding: mutation above the rebind
		return nil, err
	}
	ctn = ctn.Clone()
	return ctn, ctn.SetCapacity(2 << 20) // silent: private from here on
}

// cloneOnOneBranch clones only when asked: after the merge the
// variable may still alias the store's snapshot.
func cloneOnOneBranch(s container.Store, id container.ID, deep bool) error {
	ctn, err := s.Get(id)
	if err != nil {
		return err
	}
	if deep {
		ctn = ctn.Clone()
	}
	return ctn.SetCapacity(1 << 20) // finding: shared on the deep=false path
}

// cloneBothBranches covers every path before the mutation; silent.
func cloneBothBranches(s container.Store, id container.ID, deep bool) error {
	ctn, err := s.Get(id)
	if err != nil {
		return err
	}
	if deep {
		ctn = ctn.Clone()
	} else {
		ctn = ctn.Clone()
	}
	return ctn.SetCapacity(1 << 20)
}
