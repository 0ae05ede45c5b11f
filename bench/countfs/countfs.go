// Package countfs is the benchmark's filesystem: a vfs.FS over the real
// OS filesystem that counts writes, bytes and fsyncs, and remembers each
// file's size at its last Sync so the harness can cut the store the way a
// power loss would — every file truncated to what an fsync covered.
//
// Sync is counted but not issued: this sandbox's disk is not a device
// worth timing (identical runs drift 157–212 µs per fsync), and the crash
// cut needs only the bookkeeping.
package countfs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"adept2/internal/vfs"
)

// Counts is a point-in-time copy of the counters.
type Counts struct {
	Writes int64
	Bytes  int64
	Syncs  int64
}

// Sub returns c - o, the activity between two snapshots.
func (c Counts) Sub(o Counts) Counts {
	return Counts{c.Writes - o.Writes, c.Bytes - o.Bytes, c.Syncs - o.Syncs}
}

// FS counts every write and sync that passes through it.
type FS struct {
	inner vfs.FS
	mu    sync.Mutex
	n     Counts
	// synced maps a cleaned path to the file size its last Sync covered.
	synced map[string]int64
}

// New wraps the real filesystem.
func New() *FS { return &FS{inner: vfs.OS(), synced: map[string]int64{}} }

// Counts returns the counters so far.
func (c *FS) Counts() Counts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

type file struct {
	vfs.File
	fs   *FS
	path string
	size int64
}

func (c *FS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := c.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&(os.O_WRONLY|os.O_RDWR) == 0 {
		return f, nil
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	path := filepath.Clean(name)
	if st.Size() == 0 {
		// Created or truncated: nothing of it is durable any more.
		c.mu.Lock()
		delete(c.synced, path)
		c.mu.Unlock()
	}
	return &file{File: f, fs: c, path: path, size: st.Size()}, nil
}

// Write assumes appends, the only write mode the durability stack uses.
func (f *file) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.size += int64(n)
	f.fs.mu.Lock()
	f.fs.n.Writes++
	f.fs.n.Bytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *file) Truncate(size int64) error {
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.size = size
	f.fs.mu.Lock()
	if f.fs.synced[f.path] > size {
		f.fs.synced[f.path] = size
	}
	f.fs.mu.Unlock()
	return nil
}

func (f *file) Sync() error {
	f.fs.mu.Lock()
	f.fs.n.Syncs++
	f.fs.synced[f.path] = f.size
	f.fs.mu.Unlock()
	return nil
}

func (c *FS) Rename(oldname, newname string) error {
	if err := c.inner.Rename(oldname, newname); err != nil {
		return err
	}
	o, n := filepath.Clean(oldname), filepath.Clean(newname)
	c.mu.Lock()
	if sz, ok := c.synced[o]; ok {
		c.synced[n] = sz
		delete(c.synced, o)
	} else {
		delete(c.synced, n)
	}
	c.mu.Unlock()
	return nil
}

func (c *FS) Remove(name string) error {
	if err := c.inner.Remove(name); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.synced, filepath.Clean(name))
	c.mu.Unlock()
	return nil
}

func (c *FS) RemoveAll(path string) error                  { return c.inner.RemoveAll(path) }
func (c *FS) MkdirAll(path string, perm fs.FileMode) error { return c.inner.MkdirAll(path, perm) }
func (c *FS) ReadDir(name string) ([]fs.DirEntry, error)   { return c.inner.ReadDir(name) }
func (c *FS) Stat(name string) (fs.FileInfo, error)        { return c.inner.Stat(name) }
func (c *FS) SyncDir(string) error                         { return nil }

// CrashCut copies the tree under src to dst as a power loss would leave
// it: every file cut to the size its last Sync covered (never-synced files
// survive empty). The synced sizes are read in one step before any byte is
// copied, so a cut taken while a flusher is running is still one instant's
// view: files only grow by appends, so a synced prefix never changes. It
// returns the bytes kept.
func (c *FS) CrashCut(src, dst string) (int64, error) {
	c.mu.Lock()
	sizes := make(map[string]int64, len(c.synced))
	for p, sz := range c.synced {
		sizes[p] = sz
	}
	c.mu.Unlock()
	var kept int64
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		n, err := copyPrefix(p, target, sizes[filepath.Clean(p)])
		kept += n
		return err
	})
	return kept, err
}

func copyPrefix(src, dst string, n int64) (int64, error) {
	in, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return 0, err
	}
	written, err := io.CopyN(out, in, n)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return written, err
}
