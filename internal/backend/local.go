package backend

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hidestore/internal/durable"
)

// Local is a Backend over a directory tree. Blob names map to relative
// paths under the root; writes go through durable.WriteFileAtomic and
// removals through durable.Remove, so after a crash a name holds its old
// or its new content in full and a deleted name stays deleted.
type Local struct {
	root string
}

var _ Backend = (*Local)(nil)

// NewLocal opens (creating if needed) a local backend rooted at dir,
// sweeping stale tmp-* files a crashed writer left anywhere under it.
func NewLocal(dir string) (*Local, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("backend: create root: %w", err)
	}
	if err := sweepTree(dir); err != nil {
		return nil, err
	}
	return &Local{root: dir}, nil
}

// walkTree walks the tree under root. The trailing separator makes the
// walk follow a root that is a symbolic link, and makes a root that is
// not a directory an error instead of a one-file tree: an unreadable
// store must not list as empty.
func walkTree(root string, fn fs.WalkDirFunc) error {
	return filepath.WalkDir(root+string(filepath.Separator), fn)
}

// sweepTree runs durable.SweepTemp over dir and every subdirectory
// (blob names may contain slashes, so temps can be anywhere).
func sweepTree(dir string) error {
	return walkTree(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return fmt.Errorf("backend: walk %s: %w", path, err)
		}
		if !d.IsDir() {
			return nil
		}
		if _, err := durable.SweepTemp(path); err != nil {
			return fmt.Errorf("backend: sweep stale temp files: %w", err)
		}
		return nil
	})
}

// Root returns the backing directory.
func (l *Local) Root() string { return l.root }

// path maps a blob name to its file path, rejecting escapes from the
// root ("..", absolute names).
func (l *Local) path(name string) (string, error) {
	if name == "" {
		return "", fmt.Errorf("backend: empty blob name")
	}
	clean := filepath.Clean(filepath.FromSlash(name))
	if filepath.IsAbs(clean) || clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("backend: blob name %q escapes root", name)
	}
	return filepath.Join(l.root, clean), nil
}

// Put implements Backend.
func (l *Local) Put(ctx context.Context, name string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p, err := l.path(name)
	if err != nil {
		return err
	}
	if dir := filepath.Dir(p); dir != l.root {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("backend: create dir for %s: %w", name, err)
		}
	}
	if err := durable.WriteFileAtomic(p, data, 0o644); err != nil {
		return fmt.Errorf("backend: put %s: %w", name, err)
	}
	return nil
}

// Get implements Backend.
func (l *Local) Get(ctx context.Context, name string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := l.path(name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		return nil, fmt.Errorf("backend: get %s: %w", name, err)
	}
	return data, nil
}

// Delete implements Backend.
func (l *Local) Delete(ctx context.Context, name string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p, err := l.path(name)
	if err != nil {
		return err
	}
	if err := durable.Remove(p); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		return fmt.Errorf("backend: delete %s: %w", name, err)
	}
	return nil
}

// Has implements Backend. A stat failure other than not-exist surfaces
// instead of reading as "absent".
func (l *Local) Has(ctx context.Context, name string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	p, err := l.path(name)
	if err != nil {
		return false, err
	}
	_, err = os.Stat(p)
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, fs.ErrNotExist):
		return false, nil
	default:
		return false, fmt.Errorf("backend: stat %s: %w", name, err)
	}
}

// List implements Backend, walking the tree and returning slash-form
// relative names. In-flight temp files are invisible.
func (l *Local) List(ctx context.Context, prefix string) ([]string, error) {
	var names []string
	err := walkTree(l.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return fmt.Errorf("backend: list: %w", err)
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if d.IsDir() || strings.HasPrefix(d.Name(), durable.TempPrefix) {
			return nil
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return fmt.Errorf("backend: list: %w", err)
		}
		name := filepath.ToSlash(rel)
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}
