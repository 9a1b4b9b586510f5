// Package fault provides deterministic fault injection for the
// persistence stack. A single Injector is shared by wrappers around
// the container store, the recipe store, and the engine's state
// writer; every mutating operation (container Put/Delete, recipe
// Put/Delete, state write) draws one index from a global op counter,
// so "fail at op N" addresses one exact point in the commit sequence
// regardless of which layer it lands in. The crash-matrix harness
// first runs a probe pass to count ops, then replays the same
// workload once per index with the fault armed there.
//
// Fault kinds model distinct physical failures:
//
//   - Fail: the process dies at op N — the op and every later op
//     return ErrInjected with nothing written. Dead-process semantics
//     (all subsequent ops also fail) keep a workload that ignores one
//     error from quietly writing a later op the "crashed" process
//     could never have issued.
//   - Torn: like Fail, but a prefix of the buffer reaches a temp file
//     beside the final path first — the debris an interrupted atomic
//     write (temp + fsync + rename) leaves. The final path is never
//     touched: the commit rename is atomic, so a crash exposes either
//     the old image or the new one, never a prefix.
//   - NoSpace: op N alone fails with a wrapped ErrInjected (simulated
//     ENOSPC); later ops succeed, modeling a transiently full disk.
//   - CorruptRead: read M flips one byte of the on-disk image before
//     delegating, so the store's CRC detects it — the bit-rot input
//     for fsck's repair mode.
//
// The wrappers may be called concurrently (the op counter is guarded),
// but "op N" only names the same commit step in every run when the op
// order is deterministic: the op-indexed crash matrix runs the engines
// with a one-wide commit plane, and the randomized run at the default
// width treats N as an arbitrary kill point.
package fault

import (
	"errors"
	"fmt"
	"sync"
)

// ErrInjected is the base error for every injected fault; test
// harnesses use errors.Is against it to tell injected failures from
// real ones.
var ErrInjected = errors.New("fault: injected failure")

// ErrNoSpace is the injected ENOSPC; it wraps ErrInjected.
var ErrNoSpace = fmt.Errorf("%w: no space left on device", ErrInjected)

// Kind selects the failure model; see the package comment.
type Kind int

const (
	None Kind = iota
	Fail
	Torn
	NoSpace
	CorruptRead
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Fail:
		return "fail"
	case Torn:
		return "torn"
	case NoSpace:
		return "nospace"
	case CorruptRead:
		return "corruptread"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// action is the verdict begin/beginRead hands a wrapper.
type action int

const (
	actProceed action = iota
	actFail
	actTorn
	actNoSpace
	actCorrupt
)

// Injector holds the armed fault and the op counters. The zero value
// is inert (every op proceeds); Arm schedules a fault.
type Injector struct {
	mu      sync.Mutex
	kind    Kind
	at      int // 1-based op (or read, for CorruptRead) index to fault
	ops     int
	reads   int
	tripped bool
	log     []string
}

// NewInjector returns an inert injector.
func NewInjector() *Injector { return &Injector{} }

// Arm schedules kind at the 1-based op index n (read index for
// CorruptRead). Arming with n <= 0 or kind None disarms. Counters and
// the op log reset, so one injector can be re-armed between runs.
func (inj *Injector) Arm(kind Kind, n int) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.kind, inj.at = kind, n
	if n <= 0 {
		inj.kind = None
	}
	inj.ops, inj.reads, inj.tripped, inj.log = 0, 0, false, nil
}

// Ops returns how many mutating ops have been observed since Arm —
// after a probe run, the size of the crash matrix.
func (inj *Injector) Ops() int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.ops
}

// Reads returns how many reads have been observed since Arm.
func (inj *Injector) Reads() int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.reads
}

// Tripped reports whether the armed fault has fired.
func (inj *Injector) Tripped() bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.tripped
}

// OpLog returns the labels of the mutating ops observed since Arm, in
// order — the probe run's map from op index to commit step.
func (inj *Injector) OpLog() []string {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	out := make([]string, len(inj.log))
	copy(out, inj.log)
	return out
}

// begin records one mutating op and rules on it.
func (inj *Injector) begin(op string) action {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.ops++
	inj.log = append(inj.log, op)
	switch inj.kind {
	case Fail, Torn:
		if inj.ops >= inj.at {
			first := !inj.tripped
			inj.tripped = true
			if first && inj.kind == Torn {
				return actTorn
			}
			// Later ops of a dead process fail cleanly — only the op
			// in flight at the crash can tear.
			return actFail
		}
	case NoSpace:
		if inj.ops == inj.at {
			inj.tripped = true
			return actNoSpace
		}
	}
	return actProceed
}

// beginRead records one read op and rules on it.
func (inj *Injector) beginRead(op string) action {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.reads++
	if inj.kind == CorruptRead && inj.reads == inj.at {
		inj.tripped = true
		inj.log = append(inj.log, op+" [corrupted]")
		return actCorrupt
	}
	return actProceed
}

// errFor converts a non-proceed action into the wrapper's return error.
func errFor(act action, op string) error {
	switch act {
	case actNoSpace:
		return fmt.Errorf("%s: %w", op, ErrNoSpace)
	default:
		return fmt.Errorf("%s: %w", op, ErrInjected)
	}
}
