package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"hidestore/internal/backend"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/fp"
)

// The engine's dedup decisions live in memory: the fingerprint cache, the
// active-container locations, last-seen versions, and the §4.5 deletion
// batches. The paper's prototype rebuilds the cache from the previous
// recipe at startup; this implementation persists the equivalent state in
// one small file so a process restart resumes the version history exactly
// (the CLI depends on this).

// Version 2 appends what the newest recipe was cut with (chunker and
// Min/Avg/Max, four uint32s) to version 1's layout; a version 1 file
// loads with it unknown.
const (
	_stateMagic   = 0x48445354 // "HDST"
	_stateVersion = 2
)

// ErrStateCorrupt reports an unreadable state file.
var ErrStateCorrupt = errors.New("core: corrupt state file")

// marshalState encodes the engine's resumable state.
func (e *Engine) marshalState() []byte {
	// Collect hot-chunk records in deterministic order.
	type hot struct {
		f    fp.FP
		cid  container.ID
		seen int
	}
	hots := make([]hot, 0, len(e.activeByFP))
	for f, cid := range e.activeByFP {
		seen, _ := e.cache.lastSeenOf(f)
		hots = append(hots, hot{f: f, cid: cid, seen: seen})
	}
	sort.Slice(hots, func(i, j int) bool { return hots[i].f.Less(hots[j].f) })
	batchVersions := make([]int, 0, len(e.batches))
	for v := range e.batches {
		batchVersions = append(batchVersions, v)
	}
	sort.Ints(batchVersions)
	activeIDs := make([]container.ID, 0, len(e.activeContainers))
	for id := range e.activeContainers {
		activeIDs = append(activeIDs, id)
	}
	sort.Slice(activeIDs, func(i, j int) bool { return activeIDs[i] < activeIDs[j] })

	size := 24 // header
	size += 4 + len(hots)*(fp.Size+4+4)
	size += 4
	for _, v := range batchVersions {
		size += 4 + 8 + 4 + len(e.batches[v].containers)*4
	}
	size += 8 + 8
	size += 4 + len(activeIDs)*4
	size += 16

	buf := make([]byte, size)
	binary.BigEndian.PutUint32(buf[0:], _stateMagic)
	binary.BigEndian.PutUint16(buf[4:], _stateVersion)
	binary.BigEndian.PutUint32(buf[8:], uint32(e.cfg.Window))
	binary.BigEndian.PutUint32(buf[12:], uint32(e.version))
	binary.BigEndian.PutUint32(buf[16:], uint32(e.nextCID))
	// buf[20:24] = crc, filled last.
	off := 24
	binary.BigEndian.PutUint32(buf[off:], uint32(len(hots)))
	off += 4
	for _, h := range hots {
		copy(buf[off:], h.f[:])
		binary.BigEndian.PutUint32(buf[off+fp.Size:], uint32(h.cid))
		binary.BigEndian.PutUint32(buf[off+fp.Size+4:], uint32(h.seen))
		off += fp.Size + 8
	}
	binary.BigEndian.PutUint32(buf[off:], uint32(len(batchVersions)))
	off += 4
	for _, v := range batchVersions {
		b := e.batches[v]
		binary.BigEndian.PutUint32(buf[off:], uint32(v))
		binary.BigEndian.PutUint64(buf[off+4:], b.bytes)
		binary.BigEndian.PutUint32(buf[off+12:], uint32(len(b.containers)))
		off += 16
		for _, id := range b.containers {
			binary.BigEndian.PutUint32(buf[off:], uint32(id))
			off += 4
		}
	}
	binary.BigEndian.PutUint64(buf[off:], e.logicalBytes)
	binary.BigEndian.PutUint64(buf[off+8:], e.storedBytes)
	off += 16
	binary.BigEndian.PutUint32(buf[off:], uint32(len(activeIDs)))
	off += 4
	for _, id := range activeIDs {
		binary.BigEndian.PutUint32(buf[off:], uint32(id))
		off += 4
	}
	for _, x := range []int{int(e.cutWith.alg), e.cutWith.p.Min, e.cutWith.p.Avg, e.cutWith.p.Max} {
		binary.BigEndian.PutUint32(buf[off:], uint32(x))
		off += 4
	}
	binary.BigEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[24:]))
	return buf
}

// unmarshalState restores the resumable state and reloads active
// container images from the store. Stored active images are write-once
// and may carry chunks that went cold (or moved to another image) after
// they were written; the hot-chunk table is the committed liveness, so
// every entry it does not attribute to the image is dropped here.
func (e *Engine) unmarshalState(buf []byte) error {
	if len(buf) < 24 {
		return fmt.Errorf("%w: short header", ErrStateCorrupt)
	}
	if binary.BigEndian.Uint32(buf[0:]) != _stateMagic {
		return fmt.Errorf("%w: bad magic", ErrStateCorrupt)
	}
	format := binary.BigEndian.Uint16(buf[4:])
	if format != 1 && format != _stateVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrStateCorrupt, format)
	}
	if w := int(binary.BigEndian.Uint32(buf[8:])); w != e.cfg.Window {
		return fmt.Errorf("core: state window %d does not match configured %d", w, e.cfg.Window)
	}
	if crc32.ChecksumIEEE(buf[24:]) != binary.BigEndian.Uint32(buf[20:]) {
		return fmt.Errorf("%w: checksum mismatch", ErrStateCorrupt)
	}
	e.version = int(binary.BigEndian.Uint32(buf[12:]))
	e.nextCID = container.ID(binary.BigEndian.Uint32(buf[16:]))
	e.cache = NewIndexView(e.cfg.Window)
	e.cache.setVersion(e.version)
	e.activeByFP = make(map[fp.FP]container.ID)
	e.activeContainers = make(map[container.ID]*container.Container)
	e.batches = make(map[int]*archivalBatch)

	off := 24
	read32 := func() (uint32, error) {
		if off+4 > len(buf) {
			return 0, fmt.Errorf("%w: truncated", ErrStateCorrupt)
		}
		v := binary.BigEndian.Uint32(buf[off:])
		off += 4
		return v, nil
	}
	read64 := func() (uint64, error) {
		if off+8 > len(buf) {
			return 0, fmt.Errorf("%w: truncated", ErrStateCorrupt)
		}
		v := binary.BigEndian.Uint64(buf[off:])
		off += 8
		return v, nil
	}
	nHot, err := read32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < nHot; i++ {
		if off+fp.Size+8 > len(buf) {
			return fmt.Errorf("%w: truncated hot entry", ErrStateCorrupt)
		}
		f, err := fp.FromBytes(buf[off : off+fp.Size])
		if err != nil {
			return fmt.Errorf("%w: %v", ErrStateCorrupt, err)
		}
		cid := container.ID(binary.BigEndian.Uint32(buf[off+fp.Size:]))
		seen := int(binary.BigEndian.Uint32(buf[off+fp.Size+4:]))
		off += fp.Size + 8
		e.activeByFP[f] = cid
		e.cache.insertEntry(f, cid, seen)
	}
	nBatches, err := read32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < nBatches; i++ {
		v, err := read32()
		if err != nil {
			return err
		}
		bytesTotal, err := read64()
		if err != nil {
			return err
		}
		nIDs, err := read32()
		if err != nil {
			return err
		}
		batch := &archivalBatch{bytes: bytesTotal}
		for j := uint32(0); j < nIDs; j++ {
			id, err := read32()
			if err != nil {
				return err
			}
			batch.containers = append(batch.containers, container.ID(id))
		}
		e.batches[int(v)] = batch
	}
	if e.logicalBytes, err = read64(); err != nil {
		return err
	}
	if e.storedBytes, err = read64(); err != nil {
		return err
	}
	nActive, err := read32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < nActive; i++ {
		id, err := read32()
		if err != nil {
			return err
		}
		// Past the store's cache: the engine keeps its own copy of every
		// active image, so a cached one would only take budget.
		ctn, err := backend.UncachedContainers(e.cfg.Store).Get(container.ID(id))
		if err != nil {
			return fmt.Errorf("core: reload active container %d: %w", id, err)
		}
		// The engine mutates active images; Get's result may be the
		// store's own snapshot (memory store), so work on a copy.
		ctn = ctn.Clone()
		if err := ctn.SetCapacity(e.cfg.ContainerCapacity); err != nil {
			return fmt.Errorf("core: reload active container %d: %w", id, err)
		}
		for _, f := range ctn.Fingerprints() {
			if e.activeByFP[f] != container.ID(id) {
				if err := ctn.Remove(f); err != nil {
					return fmt.Errorf("core: reload active container %d: %w", id, err)
				}
			}
		}
		e.activeContainers[container.ID(id)] = ctn
	}
	e.cutWith = cutWith{}
	if format >= 2 {
		var cw [4]uint32
		for i := range cw {
			if cw[i], err = read32(); err != nil {
				return err
			}
		}
		e.cutWith = cutWith{chunker.Algorithm(cw[0]), chunker.Params{Min: int(cw[1]), Avg: int(cw[2]), Max: int(cw[3])}}
	}
	if off != len(buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrStateCorrupt, len(buf)-off)
	}
	return nil
}

// stateName is the state blob's name in Config.State.
const stateName = "state.hds"

// saveState commits the state blob to Config.State (a Local writes it
// with durable.WriteFileAtomic: temp + fsync + rename + dir fsync); a
// no-op without one. The state write is the commit point of every
// Backup and Delete — containers and recipes written earlier in the
// operation become the committed truth only once this succeeds.
func (e *Engine) saveState(ctx context.Context) error {
	if e.cfg.State == nil {
		return nil
	}
	if err := e.cfg.State.Put(ctx, stateName, e.marshalState()); err != nil {
		return fmt.Errorf("core: write state: %w", err)
	}
	return nil
}

// loadState restores from the state blob if one exists, reporting
// whether it did. A missing blob on a store that already holds recipes
// is refused: New writes an anchor state on a fresh store, so "recipes
// but no state" can only mean the state was lost (manual deletion,
// wrong directory) — starting over would reuse version numbers and
// silently shadow the existing history.
func (e *Engine) loadState(ctx context.Context) (bool, error) {
	if e.cfg.State == nil {
		return false, nil
	}
	buf, err := e.cfg.State.Get(ctx, stateName)
	if err != nil {
		if errors.Is(err, backend.ErrNotFound) {
			vs, verr := e.cfg.Recipes.Versions()
			if verr != nil {
				return false, fmt.Errorf("core: list recipes: %w", verr)
			}
			if len(vs) > 0 {
				return false, fmt.Errorf("core: state %s missing but %d recipes exist (through v%d); refusing to restart the version history",
					stateName, len(vs), vs[len(vs)-1])
			}
			return false, nil
		}
		return false, fmt.Errorf("core: read state: %w", err)
	}
	if err := e.unmarshalState(buf); err != nil {
		return false, err
	}
	return true, nil
}
