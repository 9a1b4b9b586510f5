package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"hidestore/internal/backend"
	"hidestore/internal/backup"
	"hidestore/internal/container"
	"hidestore/internal/fp"
)

var _ backup.Scrubber = (*Engine)(nil)
var _ backup.ScrubProgressReporter = (*Engine)(nil)

// ScrubProgress implements backup.ScrubProgressReporter: the cursor's
// position in the current pass's container snapshot. Before the first
// step both are 0; between passes done equals total.
func (e *Engine) ScrubProgress() (done, total int) {
	return e.scrubPos, len(e.scrubQueue)
}

// scrubDamageMax bounds the scrub-damage list surfaced through
// Stats().Degraded; damage beyond it is counted, not listed, so a
// badly corrupted store cannot balloon every monitoring snapshot.
const scrubDamageMax = 16

// ScrubStep implements backup.Scrubber: verify one container image end
// to end (decode and CRC, and every chunk's content
// against its fingerprint — the same checks as fsck's pass 1, spread
// one container at a time so a caller can throttle the I/O).
//
// A container that fails verification is re-read once before being
// condemned: the first failure may be a transient I/O error, and
// quarantining on a transient would discard healthy data. Only damage
// that survives the definitive re-read is counted as corruption,
// quarantined (when the store supports it), and surfaced through
// Stats().Degraded.
//
// The cursor walks a sorted snapshot of the store's container list;
// when the snapshot is exhausted the step reports PassComplete and the
// next step takes a fresh snapshot, so containers created after a pass
// started are picked up on the next pass and deleted ones are skipped.
func (e *Engine) ScrubStep(ctx context.Context) (backup.ScrubStepReport, error) {
	var rep backup.ScrubStepReport
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	if e.scrubPos >= len(e.scrubQueue) {
		ids, err := e.cfg.Store.IDs()
		if err != nil {
			return rep, fmt.Errorf("scrub: enumerate containers: %w", err)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		e.scrubQueue, e.scrubPos = ids, 0
		if len(ids) == 0 {
			rep.Skipped, rep.PassComplete = true, true
			return rep, nil
		}
	}
	cid := e.scrubQueue[e.scrubPos]
	e.scrubPos++
	rep.PassComplete = e.scrubPos >= len(e.scrubQueue)
	if rep.PassComplete && e.smx != nil {
		e.smx.Passes.Inc()
	}

	chunks, bytes, problem := e.scrubVerify(cid)
	if problem != "" {
		// Definitive re-read: a second, independent read of the image.
		// If it verifies clean, the first failure was transient (a
		// flaky read path, not bad data on disk) and the container is
		// healthy; if the damage reproduces, it is real.
		chunks, bytes, problem = e.scrubVerify(cid)
	}
	if problem == scrubGone {
		// Deleted between the snapshot and now — not damage.
		rep.Skipped = true
		return rep, nil
	}
	rep.Container = uint64(cid)
	rep.Chunks, rep.Bytes = chunks, bytes
	if problem == "" {
		if e.smx != nil {
			e.smx.Containers.Inc()
			e.smx.Chunks.Add(uint64(chunks))
			e.smx.Bytes.Add(bytes)
		}
		return rep, nil
	}

	rep.Corrupt = problem
	if e.smx != nil {
		e.smx.Corruptions.Inc()
	}
	if res := e.activeContainers[cid]; res != nil {
		if _, _, bad := verifyImage(res); bad == "" {
			// Left in place on failure, so the next pass tries again.
			if err := e.cfg.Store.Put(res); err != nil {
				e.scrubRecord(fmt.Sprintf("scrub: container %d: %s (rewrite from the resident copy failed: %v)", cid, problem, err))
			} else {
				e.scrubRecord(fmt.Sprintf("scrub: container %d: %s (rewritten from the resident copy)", cid, problem))
			}
			return rep, nil
		}
	}
	if q, ok := e.cfg.Store.(container.Quarantiner); ok {
		dst, err := q.Quarantine(cid)
		if err != nil {
			e.scrubRecord(fmt.Sprintf("scrub: container %d: %s (quarantine failed: %v)", cid, problem, err))
			return rep, nil
		}
		rep.Quarantined = dst
		if e.smx != nil {
			e.smx.Quarantined.Inc()
		}
		e.scrubRecord(fmt.Sprintf("scrub: container %d: %s (quarantined to %s)", cid, problem, dst))
	} else {
		e.scrubRecord(fmt.Sprintf("scrub: container %d: %s (store cannot quarantine; image left in place)", cid, problem))
	}
	return rep, nil
}

// scrubGone marks a container that vanished legitimately (deleted
// after the pass snapshot); distinguished from damage by ErrNotFound.
const scrubGone = "\x00gone"

// scrubVerify reads one container image through the store's uncached
// view and content-checks every stored chunk. It returns the verified chunk/byte counts and a
// problem description ("" when healthy, scrubGone when the container
// no longer exists).
func (e *Engine) scrubVerify(cid container.ID) (chunks int, bytes uint64, problem string) {
	ctn, err := backend.UncachedContainers(e.cfg.Store).Get(cid)
	if err != nil {
		if errors.Is(err, container.ErrNotFound) {
			return 0, 0, scrubGone
		}
		return 0, 0, err.Error()
	}
	return verifyImage(ctn)
}

// verifyImage content-checks every chunk of one decoded image.
func verifyImage(ctn *container.Container) (chunks int, bytes uint64, problem string) {
	for _, f := range ctn.Fingerprints() {
		data, err := ctn.View(f)
		if err != nil {
			return chunks, bytes, fmt.Sprintf("chunk %s: %v", f.Short(), err)
		}
		if got := fp.Of(data); got != f {
			return chunks, bytes, fmt.Sprintf("chunk %s: content hashes to %s", f.Short(), got.Short())
		}
		chunks++
		bytes += uint64(len(data))
	}
	return chunks, bytes, ""
}

// scrubRecord appends one damage line for Stats().Degraded, bounded by
// scrubDamageMax.
func (e *Engine) scrubRecord(line string) {
	if len(e.scrubDamage) >= scrubDamageMax {
		e.scrubOverflow++
		return
	}
	e.scrubDamage = append(e.scrubDamage, line)
}
