package backend

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hidestore/internal/container"
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
	b   Backend
	dir string

	mu    sync.Mutex
	stats container.StoreStats
}

var (
	_ container.Store       = (*ContainerStore)(nil)
	_ container.Quarantiner = (*ContainerStore)(nil)
)

// NewContainerStore adapts b to a container store. dir is the directory
// b's blob names resolve under — the root of the Local at the bottom of
// b — or "" when they have no path on disk (a Mem below). Quarantine
// reports where an image went in the same terms.
func NewContainerStore(b Backend, dir string) *ContainerStore {
	return &ContainerStore{b: b, dir: dir}
}

// Put implements container.Store.
func (s *ContainerStore) Put(c *container.Container) error {
	if c == nil {
		return fmt.Errorf("backend: Put nil container")
	}
	if c.ID() == 0 {
		return fmt.Errorf("backend: Put container with reserved ID 0")
	}
	buf, err := c.MarshalBinary()
	if err != nil {
		return fmt.Errorf("backend: marshal container %d: %w", c.ID(), err)
	}
	if err := s.b.Put(context.Background(), ContainerName(c.ID()), buf); err != nil {
		return fmt.Errorf("backend: put container %d: %w", c.ID(), err)
	}
	s.mu.Lock()
	s.stats.Writes++
	s.stats.BytesWritten += uint64(c.LiveSize())
	s.mu.Unlock()
	return nil
}

// Get implements container.Store. The image is decoded in place and
// owns the buffer the backend returned (every Backend.Get hands back
// bytes of the caller's own).
func (s *ContainerStore) Get(id container.ID) (*container.Container, error) {
	buf, err := s.b.Get(context.Background(), ContainerName(id))
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return nil, fmt.Errorf("%w: container %d: %w", container.ErrNotFound, id, err)
		}
		return nil, fmt.Errorf("backend: read container %d: %w", id, err)
	}
	c, err := container.UnmarshalBinary(buf)
	if err != nil {
		return nil, fmt.Errorf("container %d: %w", id, err)
	}
	s.mu.Lock()
	s.stats.Reads++
	s.stats.BytesRead += uint64(c.LiveSize())
	s.mu.Unlock()
	return c, nil
}

// Delete implements container.Store.
func (s *ContainerStore) Delete(id container.ID) error {
	if err := s.b.Delete(context.Background(), ContainerName(id)); err != nil {
		if errors.Is(err, ErrNotFound) {
			return fmt.Errorf("%w: container %d: %w", container.ErrNotFound, id, err)
		}
		return fmt.Errorf("backend: delete container %d: %w", id, err)
	}
	s.mu.Lock()
	s.stats.Deletes++
	s.mu.Unlock()
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

// Stats implements container.Store.
func (s *ContainerStore) Stats() container.StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats implements container.Store.
func (s *ContainerStore) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = container.StoreStats{}
}
