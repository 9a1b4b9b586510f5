package backup

import (
	"sort"

	"hidestore/internal/container"
	"hidestore/internal/fp"
)

// ContainerAudit is what fsck's container walk established; each engine's
// recipe and bookkeeping passes run against it.
type ContainerAudit struct {
	// IDs is every container the store listed, readable or not.
	IDs []container.ID
	// corrupt marks the containers the walk quarantined.
	corrupt map[container.ID]bool
	// chunkAt locates every stored chunk whose content hashes to its
	// fingerprint.
	chunkAt  map[fp.FP]map[container.ID]struct{}
	affected map[int]bool
}

// AuditContainers is fsck's first pass, shared by both engines: it decodes
// every stored image (file-backed stores CRC-check on read) and hashes
// every chunk against its fingerprint, reporting problems instead of
// failing fast so one run inventories all damage. With repair, an image
// that fails to decode is quarantined — moved aside, never deleted — when
// the store implements container.Quarantiner.
func AuditContainers(store container.Store, repair bool, report *RepairReport) *ContainerAudit {
	a := &ContainerAudit{
		corrupt:  make(map[container.ID]bool),
		chunkAt:  make(map[fp.FP]map[container.ID]struct{}),
		affected: make(map[int]bool),
	}
	var err error
	if a.IDs, err = store.IDs(); err != nil {
		report.Problemf("store: cannot enumerate containers: %v", err)
	}
	for _, cid := range a.IDs {
		ctn, err := store.Get(cid)
		if err != nil {
			report.Problemf("container %d: %v", cid, err)
			if repair {
				a.quarantine(store, cid, report)
			}
			continue
		}
		report.Containers++
		for _, f := range ctn.Fingerprints() {
			data, err := ctn.View(f)
			if err != nil {
				report.Problemf("container %d chunk %s: %v", cid, f.Short(), err)
				continue
			}
			report.StoredChunks++
			if got := fp.Of(data); got != f {
				report.Problemf("container %d chunk %s: content hashes to %s", cid, f.Short(), got.Short())
				continue
			}
			locs, ok := a.chunkAt[f]
			if !ok {
				locs = make(map[container.ID]struct{}, 1)
				a.chunkAt[f] = locs
			}
			locs[cid] = struct{}{}
		}
	}
	return a
}

// quarantine moves an undecodable container aside, recording the
// destination and marking the CID so Blame can attribute losses to it.
func (a *ContainerAudit) quarantine(store container.Store, cid container.ID, report *RepairReport) {
	q, ok := store.(container.Quarantiner)
	if !ok {
		report.Problemf("container %d: store cannot quarantine; image left in place", cid)
		return
	}
	dst, err := q.Quarantine(cid)
	if err != nil {
		report.Problemf("container %d: quarantine failed: %v", cid, err)
		return
	}
	a.corrupt[cid] = true
	report.Quarantined = append(report.Quarantined, dst)
}

// Holds reports whether container cid holds a verified copy of chunk f.
func (a *ContainerAudit) Holds(f fp.FP, cid container.ID) bool {
	_, ok := a.chunkAt[f][cid]
	return ok
}

// Quarantined reports whether this walk moved cid aside.
func (a *ContainerAudit) Quarantined(cid container.ID) bool { return a.corrupt[cid] }

// Blame names version as damaged if the chunk it failed to resolve was
// last traced to a container this walk quarantined.
func (a *ContainerAudit) Blame(version int, cid container.ID) {
	if a.corrupt[cid] {
		a.affected[version] = true
	}
}

// AffectedVersions lists, ascending, the versions Blame named.
func (a *ContainerAudit) AffectedVersions() []int {
	var out []int
	for v := range a.affected {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
