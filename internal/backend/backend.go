// Package backend abstracts the byte-blob storage the stores sit on.
//
// Everything HiDeStore persists — container images, recipes, the engine
// state file — is a named blob written atomically and read back whole.
// Backend captures exactly that contract, so the same store code runs
// against a local directory, an in-memory map, or a simulated remote
// with latency, bandwidth caps and transient faults. Layers compose by
// wrapping (restic-style):
//
//	Observer( Retry( RemoteSim( Local )))
//
// The composition rules are part of the design (DESIGN.md "Storage
// backends"): the simulator sits below the retry layer, so it counts
// every attempt that reached the remote once, and the retry layer
// re-attempts only transient failures.
//
// Error taxonomy: a missing blob is ErrNotFound and must fail fast
// through every layer — retrying it cannot help and hides real bugs.
// Failures that a retry can plausibly cure (network blips, throttling)
// are marked ErrTransient; only those are retried. Anything else
// (corruption, permission errors) also fails fast.
package backend

import (
	"context"
	"errors"
)

// ErrNotFound reports a blob that does not exist. Every layer must
// preserve it under errors.Is — a missing container is a permanent
// condition and must never be retried.
var ErrNotFound = errors.New("backend: blob not found")

// ErrTransient marks failures that may succeed on retry (simulated
// network faults, throttling). The retry layer retries exactly the
// errors matching this sentinel.
var ErrTransient = errors.New("backend: transient failure")

// IsTransient reports whether err is safe to retry.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTransient)
}

// Backend stores named byte blobs. Names are slash-separated relative
// paths ("c_12.ctn", "quarantine/c_12.ctn"). Implementations must be
// safe for concurrent use: the restore prefetcher issues overlapping
// Gets from its worker pool.
//
// Put must be atomic: after a crash a name holds either its old or its
// new content in full, never a prefix (the local backend inherits this
// from durable.WriteFileAtomic).
type Backend interface {
	// Put writes or replaces the blob atomically.
	Put(ctx context.Context, name string, data []byte) error
	// Get reads a whole blob; a missing name is ErrNotFound. The returned
	// buffer is the caller's: no layer keeps or reuses it (the container
	// store decodes images in place over it).
	Get(ctx context.Context, name string) ([]byte, error)
	// Delete removes a blob durably; a missing name is ErrNotFound.
	Delete(ctx context.Context, name string) error
	// Has reports existence without reading. The error is non-nil only
	// when existence could not be determined.
	Has(ctx context.Context, name string) (bool, error)
	// List returns the names with the given prefix, in lexical order.
	// An unreadable backend must error, not answer "empty".
	List(ctx context.Context, prefix string) ([]string, error)
}
