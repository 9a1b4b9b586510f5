package backend

import (
	"bytes"
	"compress/flate"
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hidestore/internal/container"
	"hidestore/internal/fp"
)

// A container image is the blob c_<id>.ctn, so a Local rooted at a
// directory of images holds them under their file names.
const (
	containerPrefix = "c_"
	containerExt    = ".ctn"
)

// ContainerName returns the blob name of a container image.
func ContainerName(id container.ID) string {
	return containerPrefix + strconv.FormatUint(uint64(id), 10) + containerExt
}

// ContainerStore adapts a Backend to container.Store. The Store
// interface is deliberately context-free (the engines own cancellation
// at a higher level), so ops run under context.Background; restores
// that need cancellable fetches get it from the restorecache layer,
// which checks its ctx before every read.
//
// Error contract: a blob the backend reports as ErrNotFound surfaces
// as container.ErrNotFound — the sentinel every caller (and the retry
// layer below) keys on — with the original error preserved in the
// chain.
type ContainerStore struct {
	b        Backend
	dir      string
	compress bool
	// cache, when set, keeps the images written and read decoded, under
	// the rules Cache states. uncached makes Get read past it; every
	// write, delete, quarantine and failed read still updates it.
	cache    *Cache
	uncached bool
}

var (
	_ container.Store       = (*ContainerStore)(nil)
	_ container.Quarantiner = (*ContainerStore)(nil)
)

// NewContainerStore adapts b to a container store. dir is the directory
// b's blob names resolve under — the root of the Local at the bottom of
// b — or "" when they have no path on disk (a Mem below). Quarantine
// reports where an image went in the same terms. With compress set,
// images are DEFLATE-compressed at rest (see encode); a store must be
// opened the same way it was written.
func NewContainerStore(b Backend, dir string, compress bool) *ContainerStore {
	return &ContainerStore{b: b, dir: dir, compress: compress}
}

// Cached returns s attached to cache, which a system's RecipeStore shares.
func (s *ContainerStore) Cached(cache *Cache) *ContainerStore {
	c := *s
	c.cache = cache
	return &c
}

// UncachedContainers returns the view of s whose every read reaches
// storage: the one fsck, Repair, the scrubber and a verifying restore
// read, so rot on disk is found. A store that is not a ContainerStore is
// its own.
func UncachedContainers(s container.Store) container.Store {
	if a, ok := s.(*ContainerStore); ok {
		v := *a
		v.uncached = true
		return &v
	}
	return s
}

// carrierFP is the fixed fingerprint under which a compressed image is
// stored inside its carrier container. It is metadata, not content
// (carriers are never deduplicated), so a constant is fine.
var carrierFP = func() fp.FP {
	var f fp.FP
	copy(f[:], "HDS-COMPRESSED-IMAGE")
	return f
}()

// The DEFLATE codec state is pooled: a flate.Writer is about 800 KB to
// build, far more than the image it compresses.
var (
	flateWriters sync.Pool // *flate.Writer
	flateReaders sync.Pool // io.ReadCloser that is a flate.Resetter
)

// encode returns c's MarshalBinary image and the blob Put writes for it:
// the image itself, or, compressing, a carrier image — a container under
// c's ID holding one chunk under carrierFP, the DEFLATE stream (default
// level) of c's image — so the carrier keeps the image format's header
// and CRC.
func (s *ContainerStore) encode(c *container.Container) (raw, blob []byte, err error) {
	raw, err = c.MarshalBinary()
	if err != nil || !s.compress {
		return raw, raw, err
	}
	var buf bytes.Buffer
	w, _ := flateWriters.Get().(*flate.Writer)
	if w == nil {
		if w, err = flate.NewWriter(&buf, flate.DefaultCompression); err != nil {
			return nil, nil, err
		}
	} else {
		w.Reset(&buf)
	}
	defer flateWriters.Put(w)
	if _, err := w.Write(raw); err != nil {
		return nil, nil, err
	}
	if err := w.Close(); err != nil {
		return nil, nil, err
	}
	carrier := container.NewWithCapacity(c.ID(), buf.Len())
	if err := carrier.Add(carrierFP, buf.Bytes()); err != nil {
		return nil, nil, err
	}
	blob, err = carrier.MarshalBinary()
	return raw, blob, err
}

// decode is encode's inverse. The image is decoded in place and owns
// buf, or, compressing, the buffer the carrier's payload inflated into.
func (s *ContainerStore) decode(buf []byte) (*container.Container, error) {
	c, err := container.UnmarshalBinary(buf)
	if err != nil || !s.compress {
		return c, err
	}
	compressed, err := c.View(carrierFP)
	if err != nil {
		return nil, fmt.Errorf("not a compressed carrier: %w", err)
	}
	src := bytes.NewReader(compressed)
	r, _ := flateReaders.Get().(io.ReadCloser)
	if r == nil {
		r = flate.NewReader(src)
	} else if err := r.(flate.Resetter).Reset(src, nil); err != nil {
		return nil, fmt.Errorf("decompress: %w", err)
	}
	defer flateReaders.Put(r)
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("decompress: %w", err)
	}
	return container.UnmarshalBinary(raw)
}

// Put implements container.Store.
func (s *ContainerStore) Put(c *container.Container) error {
	if c == nil {
		return fmt.Errorf("backend: Put nil container")
	}
	if c.ID() == 0 {
		return fmt.Errorf("backend: Put container with reserved ID 0")
	}
	name := ContainerName(c.ID())
	raw, blob, err := s.encode(c)
	if err != nil {
		s.cache.drop(name)
		return fmt.Errorf("backend: encode container %d: %w", c.ID(), err)
	}
	if err := s.b.Put(context.Background(), name, blob); err != nil {
		s.cache.drop(name)
		return fmt.Errorf("backend: put container %d: %w", c.ID(), err)
	}
	if s.cache != nil {
		// raw is ours again now that Backend.Put has returned: the cached
		// image is decoded in place over it, a snapshot of what was stored.
		if img, err := container.UnmarshalBinary(raw); err == nil {
			s.cache.put(name, img, int64(img.DataSize()))
		} else {
			s.cache.drop(name)
		}
	}
	return nil
}

// Get implements container.Store. A decoded image owns the buffer it was
// decoded from (every Backend.Get hands back bytes of the caller's own);
// a cached one is shared by every reader, read-only.
func (s *ContainerStore) Get(id container.ID) (*container.Container, error) {
	v, err := s.cache.get(ContainerName(id), s.uncached, func() (any, int64, error) {
		buf, err := s.b.Get(context.Background(), ContainerName(id))
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				return nil, 0, fmt.Errorf("%w: container %d: %w", container.ErrNotFound, id, err)
			}
			return nil, 0, fmt.Errorf("backend: read container %d: %w", id, err)
		}
		c, err := s.decode(buf)
		if err != nil {
			return nil, 0, fmt.Errorf("container %d: %w", id, err)
		}
		return c, int64(c.DataSize()), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*container.Container), nil
}

// Delete implements container.Store.
func (s *ContainerStore) Delete(id container.ID) error {
	name := ContainerName(id)
	s.cache.drop(name)
	defer s.cache.drop(name) // a fill that read the blob before it went
	if err := s.b.Delete(context.Background(), name); err != nil {
		if errors.Is(err, ErrNotFound) {
			return fmt.Errorf("%w: container %d: %w", container.ErrNotFound, id, err)
		}
		return fmt.Errorf("backend: delete container %d: %w", id, err)
	}
	return nil
}

// Has implements container.Store.
func (s *ContainerStore) Has(id container.ID) (bool, error) {
	ok, err := s.b.Has(context.Background(), ContainerName(id))
	if err != nil {
		return false, fmt.Errorf("backend: stat container %d: %w", id, err)
	}
	return ok, nil
}

// IDs implements container.Store. Quarantined images live under the
// "quarantine/" prefix and are excluded by construction.
func (s *ContainerStore) IDs() ([]container.ID, error) {
	names, err := s.b.List(context.Background(), containerPrefix)
	if err != nil {
		return nil, fmt.Errorf("backend: list containers: %w", err)
	}
	ids := make([]container.ID, 0, len(names))
	for _, name := range names {
		if !strings.HasSuffix(name, containerExt) {
			continue
		}
		n, err := strconv.ParseUint(name[len(containerPrefix):len(name)-len(containerExt)], 10, 32)
		if err != nil {
			continue
		}
		ids = append(ids, container.ID(n))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// Len implements container.Store.
func (s *ContainerStore) Len() (int, error) {
	ids, err := s.IDs()
	if err != nil {
		return 0, err
	}
	return len(ids), nil
}

// Quarantine implements container.Quarantiner by copying the image
// under the quarantine/ prefix and then deleting the original — copy
// before delete, so no crash point loses the only copy of the bytes.
// The returned path is the image's file under the store's directory, or
// the quarantine blob name when the store has none.
func (s *ContainerStore) Quarantine(id container.ID) (string, error) {
	ctx := context.Background()
	src := ContainerName(id)
	s.cache.drop(src)
	defer s.cache.drop(src) // a fill that read the blob before it went
	buf, err := s.b.Get(ctx, src)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return "", fmt.Errorf("%w: container %d: %w", container.ErrNotFound, id, err)
		}
		return "", fmt.Errorf("backend: quarantine read %d: %w", id, err)
	}
	dst := container.QuarantineDir + "/" + src
	if err := s.b.Put(ctx, dst, buf); err != nil {
		return "", fmt.Errorf("backend: quarantine copy %d: %w", id, err)
	}
	if err := s.b.Delete(ctx, src); err != nil {
		return "", fmt.Errorf("backend: quarantine remove %d: %w", id, err)
	}
	if s.dir != "" {
		return filepath.Join(s.dir, filepath.FromSlash(dst)), nil
	}
	return dst, nil
}
