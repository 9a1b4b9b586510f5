package restorecache

import (
	"context"
	"fmt"
	"sync/atomic"

	"hidestore/internal/container"
	"hidestore/internal/fp"
)

// VerifyingFetcher wraps a Fetcher and recomputes every fetched chunk's
// fingerprint, failing loudly on any mismatch. Container files already
// carry CRCs against storage corruption; this guards the stronger
// end-to-end property that each chunk's *content* still matches the
// fingerprint its recipes reference — the dedup equivalent of a scrub.
//
// Get is safe for concurrent use (prefetch workers may call it in
// parallel) as long as the wrapped Fetcher is.
type VerifyingFetcher struct {
	inner Fetcher
	// verified counts chunks checked; read it via Chunks.
	verified atomic.Uint64
}

// NewVerifyingFetcher wraps fetch.
func NewVerifyingFetcher(fetch Fetcher) *VerifyingFetcher {
	return &VerifyingFetcher{inner: fetch}
}

// Chunks reports how many chunks have been verified so far.
func (v *VerifyingFetcher) Chunks() uint64 { return v.verified.Load() }

// Get implements Fetcher.
func (v *VerifyingFetcher) Get(ctx context.Context, id container.ID) (*container.Container, error) {
	c, err := v.inner.Get(ctx, id)
	if err != nil {
		return nil, err
	}
	for _, f := range c.Fingerprints() {
		data, err := c.View(f)
		if err != nil {
			return nil, fmt.Errorf("restorecache: verify container %d: %w", id, err)
		}
		if got := fp.Of(data); got != f {
			return nil, fmt.Errorf("restorecache: container %d chunk %s content hashes to %s",
				id, f.Short(), got.Short())
		}
		v.verified.Add(1)
	}
	return c, nil
}
