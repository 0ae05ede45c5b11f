package vfs

import (
	"io"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"sync"
	"time"
)

// MemFS is an in-memory filesystem with an explicit crash model: every
// file tracks its live content and its synced content, every directory
// entry (name -> file) tracks whether it is durable, and Crash() reverts
// the whole filesystem to the durable view — exactly what a kernel
// losing its page cache would leave on disk.
//
// Durability rules (see doc.go for the rationale):
//
//   - File.Sync persists the file's content AND its directory entry
//     (the relaxed ext4-like model the journal relies on: a created-
//     then-fsynced file survives a crash without a directory fsync).
//   - FS.SyncDir persists the directory's current entry table: renames
//     and removes in it become durable, and entries of never-synced
//     files become durable with whatever content was last file-synced
//     (possibly none — an empty file, like a real crash).
//   - Directories themselves are durable on creation (simplification).
//
// MemFS is safe for concurrent use. After Crash(), handles opened
// before the crash return ErrStaleHandle on every operation — their
// goroutines (an abandoned committer's flusher) can never write into
// the post-crash state.
type MemFS struct {
	mu     sync.Mutex
	gen    int // bumped by Crash; handles of older generations are dead
	files  map[string]*memNode
	synced map[string]*memNode // durable entries: name -> inode
	dirs   map[string]bool
	sdirs  map[string]bool // durable directories
}

// memNode is one inode: live bytes and the bytes a crash preserves.
// data[:clean] and synced[:clean] are identical — clean is the lowest
// offset written or truncated since the last Sync — so a Sync copies only
// the tail past it, not the whole file.
type memNode struct {
	data   []byte
	synced []byte
	clean  int
}

// ErrStaleHandle is returned by operations on handles that were open
// when Crash() was called.
var ErrStaleHandle = &fs.PathError{Op: "stale", Path: "", Err: fs.ErrClosed}

// NewMemFS returns an empty in-memory filesystem whose root ("/" and
// ".") exists.
func NewMemFS() *MemFS {
	return &MemFS{
		files:  make(map[string]*memNode),
		synced: make(map[string]*memNode),
		dirs:   map[string]bool{"/": true, ".": true},
		sdirs:  map[string]bool{"/": true, ".": true},
	}
}

// clean normalizes a path to the map key form.
func clean(name string) string { return path.Clean(name) }

// parent returns the directory a path lives in.
func parent(name string) string { return path.Dir(name) }

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

func exist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrExist}
}

// Crash discards everything that is not durable: file contents revert
// to their last-synced bytes, directory entries to the last durable
// entry table, and every open handle goes stale. The filesystem stays
// usable — recovery code opens it like a freshly mounted disk.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gen++
	// Rebuild from the durable view with fresh inodes so stale handles
	// (holding the old ones) cannot mutate the post-crash state.
	moved := make(map[*memNode]*memNode)
	files := make(map[string]*memNode, len(m.synced))
	synced := make(map[string]*memNode, len(m.synced))
	for name, n := range m.synced {
		nn, ok := moved[n]
		if !ok {
			nn = &memNode{
				data:   append([]byte(nil), n.synced...),
				synced: append([]byte(nil), n.synced...),
				clean:  len(n.synced),
			}
			moved[n] = nn
		}
		files[name] = nn
		synced[name] = nn
	}
	m.files, m.synced = files, synced
	dirs := make(map[string]bool, len(m.sdirs))
	for d := range m.sdirs {
		dirs[d] = true
	}
	m.dirs = dirs
}

// OpenFile implements FS.
func (m *MemFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	p := clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirs[p] {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrInvalid}
	}
	n, ok := m.files[p]
	switch {
	case ok && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, exist("open", name)
	case !ok && flag&os.O_CREATE == 0:
		return nil, notExist("open", name)
	case !ok:
		if d := parent(p); !m.dirs[d] {
			return nil, notExist("open", name)
		}
		n = &memNode{}
		m.files[p] = n
	}
	if flag&os.O_TRUNC != 0 {
		n.data, n.clean = nil, 0
	}
	return &memFile{fs: m, gen: m.gen, node: n, path: p, flag: flag}, nil
}

// Rename implements FS. The durable view keeps the old binding until
// the directory is synced.
func (m *MemFS) Rename(oldname, newname string) error {
	po, pn := clean(oldname), clean(newname)
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.files[po]
	if !ok {
		return notExist("rename", oldname)
	}
	if d := parent(pn); !m.dirs[d] {
		return notExist("rename", newname)
	}
	delete(m.files, po)
	m.files[pn] = n
	return nil
}

// Remove implements FS. The durable view keeps the entry until the
// directory is synced.
func (m *MemFS) Remove(name string) error {
	p := clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirs[p] {
		for f := range m.files {
			if parent(f) == p {
				return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrInvalid}
			}
		}
		delete(m.dirs, p)
		delete(m.sdirs, p)
		return nil
	}
	if _, ok := m.files[p]; !ok {
		return notExist("remove", name)
	}
	delete(m.files, p)
	return nil
}

// RemoveAll implements FS. Subtree removal is treated as durable
// immediately (simplification: only offline maintenance uses it).
func (m *MemFS) RemoveAll(root string) error {
	p := clean(root)
	m.mu.Lock()
	defer m.mu.Unlock()
	pre := p + "/"
	for f := range m.files {
		if f == p || strings.HasPrefix(f, pre) {
			delete(m.files, f)
			delete(m.synced, f)
		}
	}
	for f := range m.synced {
		if f == p || strings.HasPrefix(f, pre) {
			delete(m.synced, f)
		}
	}
	for d := range m.dirs {
		if d == p || strings.HasPrefix(d, pre) {
			delete(m.dirs, d)
			delete(m.sdirs, d)
		}
	}
	return nil
}

// MkdirAll implements FS. Directories are durable on creation.
func (m *MemFS) MkdirAll(dir string, perm fs.FileMode) error {
	p := clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, isFile := m.files[p]; isFile {
		return &fs.PathError{Op: "mkdir", Path: dir, Err: fs.ErrExist}
	}
	for d := p; ; d = parent(d) {
		m.dirs[d] = true
		m.sdirs[d] = true
		if d == parent(d) || parent(d) == "." || parent(d) == "/" {
			break
		}
	}
	return nil
}

// ReadDir implements FS over the live view.
func (m *MemFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	p := clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[p] {
		return nil, notExist("readdir", dir)
	}
	var out []fs.DirEntry
	for f, n := range m.files {
		if parent(f) == p {
			out = append(out, memDirEntry{name: path.Base(f), size: int64(len(n.data))})
		}
	}
	for d := range m.dirs {
		if d != p && parent(d) == p {
			out = append(out, memDirEntry{name: path.Base(d), dir: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

// Stat implements FS.
func (m *MemFS) Stat(name string) (fs.FileInfo, error) {
	p := clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirs[p] {
		return memFileInfo{name: path.Base(p), dir: true}, nil
	}
	if n, ok := m.files[p]; ok {
		return memFileInfo{name: path.Base(p), size: int64(len(n.data))}, nil
	}
	return nil, notExist("stat", name)
}

// SyncDir implements FS: the directory's live entry table becomes the
// durable one. Contents stay at their last file-synced bytes.
func (m *MemFS) SyncDir(dir string) error {
	p := clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[p] {
		return notExist("syncdir", dir)
	}
	for f := range m.synced {
		if parent(f) == p {
			if _, live := m.files[f]; !live {
				delete(m.synced, f)
			}
		}
	}
	for f, n := range m.files {
		if parent(f) == p {
			m.synced[f] = n
		}
	}
	return nil
}

// SyncedContent returns the bytes of name a crash right now would
// preserve, and whether the name would survive at all (test inspection
// hook).
func (m *MemFS) SyncedContent(name string) ([]byte, bool) {
	p := clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.synced[p]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), n.synced...), true
}

// memFile is one open handle.
type memFile struct {
	fs   *MemFS
	gen  int
	node *memNode
	path string
	flag int

	mu     sync.Mutex
	off    int64
	closed bool
}

// guard validates the handle against close and crash.
func (f *memFile) guard(op string) error {
	if f.closed {
		return &fs.PathError{Op: op, Path: f.path, Err: fs.ErrClosed}
	}
	if f.gen != f.fs.gen {
		return ErrStaleHandle
	}
	return nil
}

func (f *memFile) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.guard("read"); err != nil {
		return 0, err
	}
	if f.off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.guard("write"); err != nil {
		return 0, err
	}
	if f.flag&os.O_APPEND != 0 {
		f.off = int64(len(f.node.data))
	}
	if grow := f.off + int64(len(p)) - int64(len(f.node.data)); grow > 0 {
		f.node.data = append(f.node.data, make([]byte, grow)...)
	}
	copy(f.node.data[f.off:], p)
	f.node.clean = min(f.node.clean, int(f.off))
	f.off += int64(len(p))
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.guard("sync"); err != nil {
		return err
	}
	n := f.node
	n.synced = append(n.synced[:n.clean], n.data[n.clean:]...)
	n.clean = len(n.data)
	// Relaxed model: fsync of the file persists its current directory
	// entry too, provided the name still points at this inode.
	if f.fs.files[f.path] == f.node {
		f.fs.synced[f.path] = f.node
	}
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.guard("truncate"); err != nil {
		return err
	}
	if size < 0 {
		return &fs.PathError{Op: "truncate", Path: f.path, Err: fs.ErrInvalid}
	}
	if grow := size - int64(len(f.node.data)); grow > 0 {
		f.node.data = append(f.node.data, make([]byte, grow)...)
	} else {
		f.node.data = f.node.data[:size]
	}
	f.node.clean = min(f.node.clean, int(size))
	return nil
}

func (f *memFile) Stat() (fs.FileInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.guard("stat"); err != nil {
		return nil, err
	}
	return memFileInfo{name: path.Base(f.path), size: int64(len(f.node.data))}, nil
}

func (f *memFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return &fs.PathError{Op: "close", Path: f.path, Err: fs.ErrClosed}
	}
	f.closed = true
	return nil
}

func (f *memFile) Name() string { return f.path }

// memFileInfo implements fs.FileInfo.
type memFileInfo struct {
	name string
	size int64
	dir  bool
}

func (i memFileInfo) Name() string { return i.name }
func (i memFileInfo) Size() int64  { return i.size }
func (i memFileInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i memFileInfo) ModTime() time.Time { return time.Time{} }
func (i memFileInfo) IsDir() bool        { return i.dir }
func (i memFileInfo) Sys() any           { return nil }

// memDirEntry implements fs.DirEntry.
type memDirEntry struct {
	name string
	size int64
	dir  bool
}

func (e memDirEntry) Name() string { return e.name }
func (e memDirEntry) IsDir() bool  { return e.dir }
func (e memDirEntry) Type() fs.FileMode {
	if e.dir {
		return fs.ModeDir
	}
	return 0
}
func (e memDirEntry) Info() (fs.FileInfo, error) {
	return memFileInfo{name: e.name, size: e.size, dir: e.dir}, nil
}
