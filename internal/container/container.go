// Package container implements the container abstraction of chunk-based
// deduplication systems.
//
// Unique chunks are packed into fixed-capacity containers (4 MB in the
// paper, §2.1) which are the unit of disk I/O: restoring data reads whole
// containers, so restore performance is governed by how many containers a
// backup stream's chunks are scattered across (the chunk-fragmentation
// problem, §2.3). Each container carries its own metadata hash table
// (fingerprint → offset/size, Figure 6) so that a container read makes all
// of its chunks addressable.
//
// HiDeStore distinguishes *active* containers (mutable, holding hot chunks
// of the current/previous version) from *archival* containers (immutable,
// holding cold chunks). Both share this representation; activeness is a
// property of how the engine uses them. Containers support chunk removal
// (leaving dead space) and report utilization so the engine can decide when
// to merge sparse active containers (§4.2).
package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"hidestore/internal/fp"
)

// ID identifies a container. IDs are positive; 0 is reserved as "invalid"
// (HiDeStore recipes use CID 0 to mean "still in active containers").
type ID uint32

// DefaultCapacity is the paper's container size: 4 MB of chunk data.
const DefaultCapacity = 4 << 20

// Container errors.
var (
	ErrFull      = errors.New("container: not enough free space")
	ErrDuplicate = errors.New("container: fingerprint already present")
	ErrNotFound  = errors.New("container: chunk not found")
	ErrCorrupt   = errors.New("container: corrupt encoding")
)

// Entry locates one chunk inside a container.
type Entry struct {
	FP     fp.FP
	Offset uint32
	Size   uint32
}

// Container is an in-memory container image. It is not safe for concurrent
// use; stores and engines synchronize around it.
type Container struct {
	id       ID
	capacity int
	entries  map[fp.FP]Entry
	order    []fp.FP // insertion order of live chunks
	data     []byte  // chunk payloads, including dead space after removals
	dead     int     // bytes belonging to removed chunks
}

// New creates an empty container with the given ID and DefaultCapacity.
func New(id ID) *Container {
	return NewWithCapacity(id, DefaultCapacity)
}

// NewWithCapacity creates an empty container with an explicit capacity.
// Small capacities are useful in tests; the paper's systems all use 4 MB.
func NewWithCapacity(id ID, capacity int) *Container {
	return &Container{
		id:       id,
		capacity: capacity,
		entries:  make(map[fp.FP]Entry),
	}
}

// ID returns the container's identifier.
func (c *Container) ID() ID { return c.id }

// Capacity returns the data capacity in bytes.
func (c *Container) Capacity() int { return c.capacity }

// SetCapacity adjusts the capacity, e.g. after decoding (the wire format
// does not record capacity). It fails if the existing payload would no
// longer fit.
func (c *Container) SetCapacity(n int) error {
	if n < len(c.data) {
		return fmt.Errorf("container: capacity %d below payload %d", n, len(c.data))
	}
	c.capacity = n
	return nil
}

// Len returns the number of live chunks.
func (c *Container) Len() int { return len(c.entries) }

// DataSize returns the bytes of payload written, including dead space.
func (c *Container) DataSize() int { return len(c.data) }

// LiveSize returns the bytes of payload belonging to live chunks.
func (c *Container) LiveSize() int { return len(c.data) - c.dead }

// Free returns the remaining appendable space.
func (c *Container) Free() int { return c.capacity - len(c.data) }

// Utilization is live payload over capacity — the sparseness measure
// HiDeStore uses to pick merge candidates (§4.2).
func (c *Container) Utilization() float64 {
	return float64(c.LiveSize()) / float64(c.capacity)
}

// HasRoom reports whether a chunk of n bytes can be appended.
func (c *Container) HasRoom(n int) bool { return n <= c.Free() }

// Grow reserves payload room for n more bytes (no more than Free), so the
// Adds that fill it do not regrow the buffer: appending a 4 MB payload
// from empty copies it several times over. For callers that know how
// much they are about to pack.
func (c *Container) Grow(n int) {
	if n > c.Free() {
		n = c.Free()
	}
	if n > cap(c.data)-len(c.data) {
		data := make([]byte, len(c.data), len(c.data)+n)
		copy(data, c.data)
		c.data = data
	}
}

// Add appends a chunk. It fails with ErrFull when the payload would exceed
// capacity and with ErrDuplicate when the fingerprint is already live.
func (c *Container) Add(f fp.FP, data []byte) error {
	if !c.HasRoom(len(data)) {
		return fmt.Errorf("%w: %d bytes, %d free", ErrFull, len(data), c.Free())
	}
	if _, ok := c.entries[f]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, f.Short())
	}
	c.entries[f] = Entry{FP: f, Offset: uint32(len(c.data)), Size: uint32(len(data))}
	c.order = append(c.order, f)
	c.data = append(c.data, data...)
	return nil
}

// Has reports whether the fingerprint is live in this container.
func (c *Container) Has(f fp.FP) bool {
	_, ok := c.entries[f]
	return ok
}

// View returns the chunk payload for f without copying it: a sub-slice of
// the container's own buffer, capped so an append cannot reach the next
// chunk. The bytes must not be written, and are valid until the container
// is next mutated (Add, Remove, Grow). An image obtained from Store.Get or
// UnmarshalBinary never is, so goroutines may share its views freely; a
// caller that needs the bytes past the image's life copies them.
func (c *Container) View(f fp.FP) ([]byte, error) {
	e, ok := c.entries[f]
	if !ok {
		return nil, fmt.Errorf("%w: %s in container %d", ErrNotFound, f.Short(), c.id)
	}
	end := e.Offset + e.Size
	return c.data[e.Offset:end:end], nil
}

// Payload returns the whole payload under View's contract; an Entry's
// chunk is Payload()[Offset:Offset+Size], so adjacent chunks copy as one.
func (c *Container) Payload() []byte { return c.data[:len(c.data):len(c.data)] }

// Entry returns the metadata entry for f.
func (c *Container) Entry(f fp.FP) (Entry, bool) {
	e, ok := c.entries[f]
	return e, ok
}

// Remove deletes the chunk's metadata, leaving its payload as dead space
// (the paper's Figure 6: freed holes are not directly reusable because
// chunk sizes vary; compaction reclaims them).
func (c *Container) Remove(f fp.FP) error {
	e, ok := c.entries[f]
	if !ok {
		return fmt.Errorf("%w: %s in container %d", ErrNotFound, f.Short(), c.id)
	}
	delete(c.entries, f)
	c.dead += int(e.Size)
	// Lazily drop from order on iteration; keep removal O(1).
	return nil
}

// Fingerprints returns the live fingerprints in insertion order.
func (c *Container) Fingerprints() []fp.FP {
	out := make([]fp.FP, 0, len(c.entries))
	for _, f := range c.order {
		if _, ok := c.entries[f]; ok {
			out = append(out, f)
		}
	}
	return out
}

// Entries returns the live entries in insertion order.
func (c *Container) Entries() []Entry {
	out := make([]Entry, 0, len(c.entries))
	for _, f := range c.order {
		if e, ok := c.entries[f]; ok {
			out = append(out, e)
		}
	}
	return out
}

// Compacted returns a new container with the given ID holding only the
// live chunks, packed contiguously in insertion order.
func (c *Container) Compacted(id ID) *Container {
	out := NewWithCapacity(id, c.capacity)
	for _, f := range c.order {
		if e, ok := c.entries[f]; ok {
			// Add cannot fail: live size necessarily fits capacity and
			// fingerprints are unique within a container.
			if err := out.Add(f, c.data[e.Offset:e.Offset+e.Size]); err != nil {
				//hidelint:ignore no-panic unreachable by construction: live chunks fit capacity and fingerprints are unique
				panic(fmt.Sprintf("container: compaction invariant violated: %v", err))
			}
		}
	}
	return out
}

// Clone returns a deep copy.
func (c *Container) Clone() *Container {
	out := &Container{
		id:       c.id,
		capacity: c.capacity,
		entries:  make(map[fp.FP]Entry, len(c.entries)),
		order:    append([]fp.FP(nil), c.order...),
		data:     append([]byte(nil), c.data...),
		dead:     c.dead,
	}
	for k, v := range c.entries {
		out.entries[k] = v
	}
	return out
}

// Binary format constants.
const (
	_magic         = 0x48445343 // "HDSC"
	_formatVersion = 1
	_headerSize    = 4 + 2 + 2 + 4 + 4 + 4 + 4 // magic, ver, pad, id, count, dataSize, crc
	_entrySize     = fp.Size + 4 + 4
)

// MarshalBinary encodes the container (live chunks only, compacted) as:
//
//	magic u32 | version u16 | pad u16 | id u32 | count u32 | dataSize u32 |
//	crc u32 | count×(fp[20] | offset u32 | size u32) | data bytes
//
// Entries are written in ascending offset order and the chunks they name
// tile the data bytes exactly. The CRC covers entries and data, enabling
// corruption detection on read.
func (c *Container) MarshalBinary() ([]byte, error) {
	packed := c
	if c.dead > 0 {
		packed = c.Compacted(c.id)
	}
	entries := packed.Entries()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Offset < entries[j].Offset })
	buf := make([]byte, _headerSize+len(entries)*_entrySize+len(packed.data))
	binary.BigEndian.PutUint32(buf[0:], _magic)
	binary.BigEndian.PutUint16(buf[4:], _formatVersion)
	binary.BigEndian.PutUint32(buf[8:], uint32(packed.id))
	binary.BigEndian.PutUint32(buf[12:], uint32(len(entries)))
	binary.BigEndian.PutUint32(buf[16:], uint32(len(packed.data)))
	off := _headerSize
	for _, e := range entries {
		copy(buf[off:], e.FP[:])
		binary.BigEndian.PutUint32(buf[off+fp.Size:], e.Offset)
		binary.BigEndian.PutUint32(buf[off+fp.Size+4:], e.Size)
		off += _entrySize
	}
	copy(buf[off:], packed.data)
	crc := crc32.ChecksumIEEE(buf[_headerSize:])
	binary.BigEndian.PutUint32(buf[20:], crc)
	return buf, nil
}

// UnmarshalBinary decodes a container encoded by MarshalBinary in place:
// it owns buf from here on. The payload is a capped sub-slice of buf and
// the table's offsets are kept as stored, so nobody may write buf again,
// and mutating the container (Add, Grow) reallocates instead of writing
// into it. Nothing is re-packed, so the table is checked, not trusted: an
// entry outside the payload, entries that overlap or are out of offset
// order and a repeated fingerprint are ErrCorrupt; payload bytes no entry
// covers count as dead space. The capacity is DefaultCapacity unless the
// payload is larger.
func UnmarshalBinary(buf []byte) (*Container, error) {
	if len(buf) < _headerSize {
		return nil, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(buf))
	}
	if binary.BigEndian.Uint32(buf[0:]) != _magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.BigEndian.Uint16(buf[4:]); v != _formatVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	id := ID(binary.BigEndian.Uint32(buf[8:]))
	count := int(binary.BigEndian.Uint32(buf[12:]))
	dataSize := int(binary.BigEndian.Uint32(buf[16:]))
	wantCRC := binary.BigEndian.Uint32(buf[20:])
	dataStart := _headerSize + count*_entrySize
	if need := dataStart + dataSize; len(buf) != need {
		return nil, fmt.Errorf("%w: length %d, want %d", ErrCorrupt, len(buf), need)
	}
	if crc32.ChecksumIEEE(buf[_headerSize:]) != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	c := &Container{
		id:       id,
		capacity: max(DefaultCapacity, dataSize),
		entries:  make(map[fp.FP]Entry, count),
		order:    make([]fp.FP, count),
		data:     buf[dataStart:len(buf):len(buf)],
	}
	table := buf[_headerSize:dataStart]
	end := uint64(0) // where the previous entry's chunk ends
	for i := 0; i < count; i++ {
		row := table[i*_entrySize:]
		e := Entry{
			Offset: binary.BigEndian.Uint32(row[fp.Size:]),
			Size:   binary.BigEndian.Uint32(row[fp.Size+4:]),
		}
		copy(e.FP[:], row)
		off := uint64(e.Offset)
		if off < end || off+uint64(e.Size) > uint64(dataSize) {
			return nil, fmt.Errorf("%w: entry %d (offset %d, size %d) overlaps its predecessor or leaves the %d-byte payload",
				ErrCorrupt, i, e.Offset, e.Size, dataSize)
		}
		if _, dup := c.entries[e.FP]; dup {
			return nil, fmt.Errorf("%w: entry %d repeats fingerprint %s", ErrCorrupt, i, e.FP.Short())
		}
		c.dead += int(off - end)
		end = off + uint64(e.Size)
		c.entries[e.FP] = e
		c.order[i] = e.FP
	}
	c.dead += dataSize - int(end)
	return c, nil
}
