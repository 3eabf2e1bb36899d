package vlog

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FS abstracts the filesystem under the log so tests can inject
// crash-consistent fault models (see MemFS). The default is the OS.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// OpenWrite opens path read-write, creating it if absent.
	OpenWrite(path string) (File, error)
	// OpenRead opens path read-only.
	OpenRead(path string) (File, error)
	// Remove deletes path.
	Remove(path string) error
	// List returns the file names (not paths) in dir.
	List(dir string) ([]string, error)
	// Truncate shrinks path to size bytes (torn-tail repair) and makes
	// the new size durable.
	Truncate(path string, size int64) error
	// SyncDir flushes dir's entries to stable storage, so a crash
	// cannot drop a created segment (whose contents were fsynced) or
	// resurrect a removed one.
	SyncDir(dir string) error
}

// File is the per-file surface the log needs.
type File interface {
	io.ReaderAt
	io.WriterAt
	// Sync flushes written bytes to stable storage.
	Sync() error
	// Close releases the handle.
	Close() error
	// Size returns the file's current length.
	Size() (int64, error)
}

// OSFS is the real filesystem.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// OpenWrite implements FS.
func (OSFS) OpenWrite(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// OpenRead implements FS.
func (OSFS) OpenRead(path string) (File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Remove implements FS.
func (OSFS) Remove(path string) error { return os.Remove(path) }

// List implements FS.
func (OSFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// Truncate implements FS: the shrink is fsynced before returning, so a
// crash cannot undo a torn-tail repair the caller already acted on.
func (OSFS) Truncate(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// SyncDir implements FS.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// osFile adapts *os.File to File.
type osFile struct{ *os.File }

// Size implements File.
func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// MemFS is an in-memory filesystem with a crash model: Sync marks a
// file's bytes durable, and Crash discards everything after each file's
// durable prefix except a seeded, possibly-garbled fragment of the
// unsynced tail — the torn write a kill -9 mid-group-commit leaves
// behind. Tests point two consecutive Log instances at one MemFS to
// simulate crash and recovery of the same disk.
type MemFS struct {
	mu    sync.Mutex
	rng   *rand.Rand
	files map[string]*memFile
}

// memFile is one in-memory file: buf is the live contents, synced the
// crash-durable prefix length.
type memFile struct {
	buf    []byte
	synced int
}

// NewMemFS creates a MemFS whose crash behaviour is driven by seed.
func NewMemFS(seed int64) *MemFS {
	return &MemFS{rng: rand.New(rand.NewSource(seed)), files: make(map[string]*memFile)}
}

// Crash simulates kill -9: for every file, bytes beyond the last Sync
// survive only partially — a seeded prefix of the unsynced tail, with
// the byte at the tear garbled half the time. Returns the number of
// files that lost bytes.
func (m *MemFS) Crash() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	torn := 0
	for _, f := range m.files {
		if len(f.buf) <= f.synced {
			continue
		}
		unsynced := len(f.buf) - f.synced
		keep := 0
		if unsynced > 0 {
			keep = m.rng.Intn(unsynced + 1)
		}
		if keep < unsynced {
			torn++
		}
		f.buf = f.buf[:f.synced+keep]
		if keep > 0 && m.rng.Intn(2) == 0 {
			f.buf[len(f.buf)-1] ^= 0x5a
		}
		f.synced = len(f.buf)
	}
	return torn
}

// MkdirAll implements FS (directories are implicit in MemFS).
func (m *MemFS) MkdirAll(dir string) error { return nil }

// SyncDir implements FS. MemFS's crash model has no directory entries
// — files either exist or don't, independent of any dir flush — so this
// is a no-op; the OSFS implementation is where the dir fsync matters.
func (m *MemFS) SyncDir(dir string) error { return nil }

// OpenWrite implements FS.
func (m *MemFS) OpenWrite(path string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[path]
	if !ok {
		f = &memFile{}
		m.files[path] = f
	}
	return &memHandle{fs: m, f: f}, nil
}

// OpenRead implements FS.
func (m *MemFS) OpenRead(path string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[path]
	if !ok {
		return nil, fmt.Errorf("memfs: %s: %w", path, os.ErrNotExist)
	}
	return &memHandle{fs: m, f: f}, nil
}

// Remove implements FS.
func (m *MemFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return fmt.Errorf("memfs: %s: %w", path, os.ErrNotExist)
	}
	delete(m.files, path)
	return nil
}

// List implements FS.
func (m *MemFS) List(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for path := range m.files {
		if filepath.Dir(path) == filepath.Clean(dir) {
			names = append(names, filepath.Base(path))
		}
	}
	sort.Strings(names)
	return names, nil
}

// Truncate implements FS.
func (m *MemFS) Truncate(path string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[path]
	if !ok {
		return fmt.Errorf("memfs: %s: %w", path, os.ErrNotExist)
	}
	if size < 0 || size > int64(len(f.buf)) {
		return fmt.Errorf("memfs: truncate %s beyond length", path)
	}
	f.buf = f.buf[:size]
	if f.synced > int(size) {
		f.synced = int(size)
	}
	return nil
}

// memHandle is an open MemFS file.
type memHandle struct {
	fs *MemFS
	f  *memFile
}

// ReadAt implements io.ReaderAt.
func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if off >= int64(len(h.f.buf)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements io.WriterAt.
func (h *memHandle) WriteAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	end := off + int64(len(p))
	if grow := end - int64(len(h.f.buf)); grow > 0 {
		// Zero-filled growth, amortised: one copy per doubling, not per write.
		h.f.buf = append(h.f.buf, make([]byte, grow)...)
	}
	copy(h.f.buf[off:end], p)
	return len(p), nil
}

// Sync implements File: everything written so far becomes durable.
func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.f.synced = len(h.f.buf)
	return nil
}

// Close implements File.
func (h *memHandle) Close() error { return nil }

// Size implements File.
func (h *memHandle) Size() (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	return int64(len(h.f.buf)), nil
}
