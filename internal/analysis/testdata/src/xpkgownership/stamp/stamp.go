// Package stamp is the far side of the xpkgownership corpus: helpers
// that mutate or launder containers. Callers see these bodies only
// through their summaries.
package stamp

import (
	"hidestore/internal/container"
	"hidestore/internal/fp"
)

// Brand mutates its parameter; a caller passing a shared Get result is
// the finding, on the caller's side.
func Brand(c *container.Container) error {
	return c.SetCapacity(1 << 20)
}

// Fill also mutates, through a different mutator.
func Fill(c *container.Container, f fp.FP, data []byte) error {
	return c.Add(f, data)
}

// Fetch launders the shared snapshot through a return value: the
// caller never sees a method named Get.
func Fetch(s container.Store, id container.ID) (*container.Container, error) {
	return s.Get(id)
}
