package container

import "hidestore/internal/fp"

// Packer fills containers in arrival order: each chunk goes into the open
// image, and when one does not fit, that image is sealed and a fresh one
// opened under the next ID. The engines' ingest loops and HiDeStore's
// migrate and merge passes all pack this way; what sealing an image means
// is the Seal callback.
type Packer struct {
	NextID   *ID // the owner's ID counter; a fresh image takes the next value
	Capacity int
	// Remaining, when positive, is the payload still to be packed: fresh
	// images are pre-sized for it (up to Capacity) instead of regrowing.
	// A packer of a stream of unknown length sets math.MaxInt, opening
	// every image at full Capacity.
	Remaining int
	// Seal receives each non-empty image once nothing more goes into it.
	Seal func(*Container) error

	open *Container
}

// Add packs one chunk and returns the ID of the image now holding it. On a
// container error — ErrDuplicate included — that ID is still the open
// image's.
func (p *Packer) Add(f fp.FP, data []byte) (ID, error) {
	if p.open != nil && !p.open.HasRoom(len(data)) {
		if err := p.Flush(); err != nil {
			return 0, err
		}
	}
	if p.open == nil {
		*p.NextID++
		p.open = NewWithCapacity(*p.NextID, p.Capacity)
		if p.Remaining > 0 {
			p.open.Grow(p.Remaining)
		}
	}
	if err := p.open.Add(f, data); err != nil {
		return p.open.ID(), err
	}
	p.Remaining -= len(data)
	return p.open.ID(), nil
}

// Flush seals the open image, if there is one with anything in it.
func (p *Packer) Flush() error {
	c := p.open
	p.open = nil
	if c == nil || c.Len() == 0 {
		return nil
	}
	return p.Seal(c)
}
