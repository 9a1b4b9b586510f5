package container_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hidestore/internal/backend"
	"hidestore/internal/container"
	"hidestore/internal/container/containertest"
	"hidestore/internal/durable"
)

// The file-backed container store is backend.ContainerStore over a
// backend.Local rooted at the store directory: one c_<id>.ctn file per
// image. These tests pin its on-disk behaviour from the container side.

// openFileStore opens the file-backed store rooted at dir.
func openFileStore(t *testing.T, dir string) *backend.ContainerStore {
	t.Helper()
	local, err := backend.NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	return backend.NewContainerStore(local, dir, false)
}

func TestFileStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s1 := openFileStore(t, dir)
	orig := containertest.Fill(t, 7, 4)
	fps := orig.Fingerprints()
	if err := s1.Put(orig); err != nil {
		t.Fatal(err)
	}
	// Re-open the directory as a fresh store: data must persist.
	got, err := openFileStore(t, dir).Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 4 || !got.Has(fps[0]) {
		t.Fatal("container not persisted across reopen")
	}
}

func TestFileStoreCorruptFile(t *testing.T) {
	dir := t.TempDir()
	s := openFileStore(t, dir)
	if err := s.Put(containertest.Fill(t, 1, 2)); err != nil {
		t.Fatal(err)
	}
	// Flip a data byte on disk; Get must detect the corruption via CRC.
	path := filepath.Join(dir, "c_1.ctn")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(1); !errors.Is(err, container.ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

// TestFileStoreIgnoresForeignFiles: files that are not c_<id>.ctn —
// including quarantined images — are not containers of the store.
func TestFileStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s := openFileStore(t, dir)
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "c_notanum.ctn"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(containertest.Fill(t, 2, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(containertest.Fill(t, 5, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Quarantine(5); err != nil {
		t.Fatal(err)
	}
	ids, err := s.IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("IDs = %v, want [2]", ids)
	}
}

// TestFileStoreIDsErrorSurfaces: an unreadable store directory must
// report an error, not masquerade as an empty store — callers like
// Check() and the delete sweep would otherwise conclude every container
// is missing (or already swept) and report garbage.
func TestFileStoreIDsErrorSurfaces(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "store")
	s := openFileStore(t, dir)
	if err := s.Put(containertest.Fill(t, 1, 2)); err != nil {
		t.Fatal(err)
	}
	// Replace the directory with a regular file so listing it fails.
	// (chmod tricks don't work here: the suite may run as root, which
	// bypasses permission checks.)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.IDs(); err == nil {
		t.Fatal("IDs() on an unreadable store dir returned nil error")
	}
	if _, err := s.Len(); err == nil {
		t.Fatal("Len() on an unreadable store dir returned nil error")
	}
	if _, err := s.Has(1); err == nil {
		t.Fatal("Has() on an unreadable store dir returned nil error")
	}
}

// TestFileStoreSweepsTempsAtOpen: stale tmp-* debris a crashed writer
// left behind is removed when the store is reopened; committed images
// are untouched.
func TestFileStoreSweepsTempsAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := openFileStore(t, dir)
	if err := s.Put(containertest.Fill(t, 1, 2)); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, durable.TempPrefix+"123456")
	if err := os.WriteFile(stale, []byte("half a container"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openFileStore(t, dir)
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp file survived reopen: %v", err)
	}
	if has, err := s2.Has(1); err != nil || !has {
		t.Fatalf("committed image lost by the sweep: %v, %v", has, err)
	}
}
