package container

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"

	"hidestore/internal/fp"
)

// CompressedStore wraps a Store, transparently DEFLATE-compressing
// container images at rest. Production deduplication systems compress
// containers after chunking (compression composes with deduplication:
// dedup removes repeated chunks, compression shrinks what remains); the
// paper's testbed leaves it off, so the experiment harness does too, but
// the CLI can enable it for real use.
//
// The wrapper stores each container as a fresh DEFLATE stream of its
// MarshalBinary image. Reads decompress and decode; the inner store only
// ever sees opaque compressed bytes packed inside a single-chunk carrier
// container, so any Store implementation can back it.
type CompressedStore struct {
	inner Store
	level int

	mu    sync.Mutex
	stats StoreStats
	// rawBytes and compressedBytes track the compression ratio.
	rawBytes        uint64
	compressedBytes uint64
}

var _ Store = (*CompressedStore)(nil)

// NewCompressedStore wraps inner; level is a flate level (flate.
// DefaultCompression when 0).
func NewCompressedStore(inner Store, level int) (*CompressedStore, error) {
	if level == 0 {
		level = flate.DefaultCompression
	}
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		return nil, fmt.Errorf("container: invalid compression level %d", level)
	}
	return &CompressedStore{inner: inner, level: level}, nil
}

// carrierFP is the fixed fingerprint under which the compressed image is
// stored inside the carrier container. It is metadata, not content
// (carriers are never deduplicated), so a constant is fine.
var carrierFP = func() fp.FP {
	var f fp.FP
	copy(f[:], "HDS-COMPRESSED-IMAGE")
	return f
}()

// Put implements Store.
func (s *CompressedStore) Put(c *Container) error {
	if c == nil {
		return fmt.Errorf("container: Put nil container")
	}
	raw, err := c.MarshalBinary()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, s.level)
	if err != nil {
		return fmt.Errorf("container: compressor: %w", err)
	}
	if _, err := w.Write(raw); err != nil {
		return fmt.Errorf("container: compress %d: %w", c.ID(), err)
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("container: compress %d: %w", c.ID(), err)
	}
	carrier := NewWithCapacity(c.ID(), buf.Len())
	if err := carrier.Add(carrierFP, buf.Bytes()); err != nil {
		return err
	}
	if err := s.inner.Put(carrier); err != nil {
		return err
	}
	s.mu.Lock()
	s.stats.Writes++
	s.stats.BytesWritten += uint64(c.LiveSize())
	s.rawBytes += uint64(len(raw))
	s.compressedBytes += uint64(buf.Len())
	s.mu.Unlock()
	return nil
}

// Get implements Store. The image is decoded in place and owns the
// buffer the carrier's payload was inflated into.
func (s *CompressedStore) Get(id ID) (*Container, error) {
	carrier, err := s.inner.Get(id)
	if err != nil {
		return nil, err
	}
	compressed, err := carrier.View(carrierFP)
	if err != nil {
		return nil, fmt.Errorf("container %d: not a compressed carrier: %w", id, err)
	}
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(compressed)))
	if err != nil {
		return nil, fmt.Errorf("container %d: decompress: %w", id, err)
	}
	c, err := UnmarshalBinary(raw)
	if err != nil {
		return nil, fmt.Errorf("container %d: %w", id, err)
	}
	s.mu.Lock()
	s.stats.Reads++
	s.stats.BytesRead += uint64(c.LiveSize())
	s.mu.Unlock()
	return c, nil
}

// Delete implements Store.
func (s *CompressedStore) Delete(id ID) error {
	if err := s.inner.Delete(id); err != nil {
		return err
	}
	s.mu.Lock()
	s.stats.Deletes++
	s.mu.Unlock()
	return nil
}

// Has implements Store.
func (s *CompressedStore) Has(id ID) (bool, error) { return s.inner.Has(id) }

// IDs implements Store.
func (s *CompressedStore) IDs() ([]ID, error) { return s.inner.IDs() }

// Len implements Store.
func (s *CompressedStore) Len() (int, error) { return s.inner.Len() }

// Quarantine forwards to the inner store when it can quarantine;
// compression is transparent to the on-disk layout, so the carrier
// file is the right thing to move aside.
func (s *CompressedStore) Quarantine(id ID) (string, error) {
	q, ok := s.inner.(Quarantiner)
	if !ok {
		return "", fmt.Errorf("container: inner store of CompressedStore cannot quarantine")
	}
	return q.Quarantine(id)
}

// Stats implements Store: logical (uncompressed) byte counts, so restore
// speed factors stay comparable with uncompressed stores.
func (s *CompressedStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats implements Store.
func (s *CompressedStore) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = StoreStats{}
}

// CompressionRatio returns compressed bytes over raw bytes written so far
// (1.0 = incompressible, smaller is better); 0 before any write.
func (s *CompressedStore) CompressionRatio() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rawBytes == 0 {
		return 0
	}
	return float64(s.compressedBytes) / float64(s.rawBytes)
}
