package container

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hidestore/internal/durable"
)

// FileStore is a Store backed by one file per container in a directory,
// named c_<id>.ctn. Writes go through durable.WriteFileAtomic (temp
// file + fsync + rename + directory fsync) so a crash or power loss
// never leaves a half-written or vanished container visible.
type FileStore struct {
	dir   string
	mu    sync.Mutex
	stats StoreStats
}

var (
	_ Store       = (*FileStore)(nil)
	_ Quarantiner = (*FileStore)(nil)
)

const (
	_fileExt = ".ctn"
	// QuarantineDir is the subdirectory (of the store root) that
	// Quarantine moves corrupt images into.
	QuarantineDir = "quarantine"
)

// NewFileStore opens (creating if needed) a file-backed store rooted at
// dir, sweeping any stale tmp-* files a crashed writer left behind.
//
//hidelint:ignore ignored-ctx one-time MkdirAll + temp sweep at open; no meaningful cancellation point
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("container: create store dir: %w", err)
	}
	if _, err := durable.SweepTemp(dir); err != nil {
		return nil, fmt.Errorf("container: sweep stale temp files: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *FileStore) Dir() string { return s.dir }

func (s *FileStore) path(id ID) string {
	return filepath.Join(s.dir, "c_"+strconv.FormatUint(uint64(id), 10)+_fileExt)
}

// Path returns the on-disk path of id's image. Exported for fault
// injection and forensics tooling; normal clients go through Store.
func (s *FileStore) Path(id ID) string { return s.path(id) }

// Put implements Store.
func (s *FileStore) Put(c *Container) error {
	if c == nil {
		return fmt.Errorf("container: Put nil container")
	}
	if c.ID() == 0 {
		return fmt.Errorf("container: Put container with reserved ID 0")
	}
	buf, err := c.MarshalBinary()
	if err != nil {
		return fmt.Errorf("container: marshal %d: %w", c.ID(), err)
	}
	if err := durable.WriteFileAtomic(s.path(c.ID()), buf, 0o644); err != nil {
		return fmt.Errorf("container: put %d: %w", c.ID(), err)
	}
	s.mu.Lock()
	s.stats.Writes++
	s.stats.BytesWritten += uint64(c.LiveSize())
	s.mu.Unlock()
	return nil
}

// Get implements Store. The image is decoded in place and owns the
// buffer the file was read into.
func (s *FileStore) Get(id ID) (*Container, error) {
	buf, err := os.ReadFile(s.path(id))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: container %d", ErrNotFound, id)
		}
		return nil, fmt.Errorf("container: read %d: %w", id, err)
	}
	c, err := UnmarshalBinary(buf)
	if err != nil {
		return nil, fmt.Errorf("container %d: %w", id, err)
	}
	s.mu.Lock()
	s.stats.Reads++
	s.stats.BytesRead += uint64(c.LiveSize())
	s.mu.Unlock()
	return c, nil
}

// Delete implements Store. The removal is fsynced: a deleted
// container must stay deleted across power loss, or GC would resurrect
// space it already accounted as reclaimed.
func (s *FileStore) Delete(id ID) error {
	err := durable.Remove(s.path(id))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: container %d", ErrNotFound, id)
		}
		return fmt.Errorf("container: delete %d: %w", id, err)
	}
	s.mu.Lock()
	s.stats.Deletes++
	s.mu.Unlock()
	return nil
}

// Has implements Store. A stat failure other than not-exist (e.g. a
// permission error) surfaces instead of reading as "absent".
func (s *FileStore) Has(id ID) (bool, error) {
	_, err := os.Stat(s.path(id))
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, fs.ErrNotExist):
		return false, nil
	default:
		return false, fmt.Errorf("container: stat %d: %w", id, err)
	}
}

// IDs implements Store.
func (s *FileStore) IDs() ([]ID, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		// An unreadable directory must not masquerade as an empty store:
		// fsck and Len would happily report a healthy empty system.
		return nil, fmt.Errorf("container: list store dir: %w", err)
	}
	ids := make([]ID, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "c_") || !strings.HasSuffix(name, _fileExt) {
			continue
		}
		n, err := strconv.ParseUint(name[2:len(name)-len(_fileExt)], 10, 32)
		if err != nil {
			continue
		}
		ids = append(ids, ID(n))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// Len implements Store.
func (s *FileStore) Len() (int, error) {
	ids, err := s.IDs()
	if err != nil {
		return 0, err
	}
	return len(ids), nil
}

// Quarantine implements Quarantiner: the image moves (durably) into
// the quarantine/ subdirectory under its original file name, where
// IDs() no longer sees it but the bytes survive for forensics.
func (s *FileStore) Quarantine(id ID) (string, error) {
	qdir := filepath.Join(s.dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return "", fmt.Errorf("container: create quarantine dir: %w", err)
	}
	dst := filepath.Join(qdir, filepath.Base(s.path(id)))
	if err := os.Rename(s.path(id), dst); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return "", fmt.Errorf("%w: container %d", ErrNotFound, id)
		}
		return "", fmt.Errorf("container: quarantine %d: %w", id, err)
	}
	// The rename crossed directories: sync both so neither the
	// disappearance nor the arrival can be lost.
	if err := durable.SyncDir(qdir); err != nil {
		return dst, err
	}
	return dst, durable.SyncDir(s.dir)
}

// Stats implements Store.
func (s *FileStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats implements Store.
func (s *FileStore) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = StoreStats{}
}
