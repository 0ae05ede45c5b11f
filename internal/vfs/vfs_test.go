package vfs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// readAll re-opens name and reads its full live content.
func readAll(t *testing.T, fsys FS, name string) []byte {
	t.Helper()
	b, err := ReadFile(fsys, name)
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return b
}

func writeVia(t *testing.T, fsys FS, name, content string, syncFile bool) {
	t.Helper()
	f, err := fsys.OpenFile(name, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(content)); err != nil {
		t.Fatal(err)
	}
	if syncFile {
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBackendContract runs the shared FS behavior over both backends.
func TestBackendContract(t *testing.T) {
	backends := []struct {
		name string
		fsys FS
		root string
	}{
		{"os", OS(), t.TempDir()},
		{"mem", NewMemFS(), "/"},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			p := filepath.Join(b.root, "a.txt")
			writeVia(t, b.fsys, p, "hello", true)
			if got := readAll(t, b.fsys, p); string(got) != "hello" {
				t.Fatalf("content = %q", got)
			}
			st, err := b.fsys.Stat(p)
			if err != nil || st.Size() != 5 || st.IsDir() {
				t.Fatalf("stat: %v %v", st, err)
			}
			if _, err := b.fsys.Stat(filepath.Join(b.root, "absent")); !os.IsNotExist(err) {
				t.Fatalf("stat absent: %v", err)
			}
			if _, err := Open(b.fsys, filepath.Join(b.root, "absent")); !os.IsNotExist(err) {
				t.Fatalf("open absent: %v", err)
			}
			// O_EXCL refuses existing files.
			if _, err := b.fsys.OpenFile(p, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644); !os.IsExist(err) {
				t.Fatalf("excl: %v", err)
			}
			// Append mode continues at the end.
			f, err := b.fsys.OpenFile(p, os.O_RDWR|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte(" world")); err != nil {
				t.Fatal(err)
			}
			if err := f.Truncate(8); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if got := readAll(t, b.fsys, p); string(got) != "hello wo" {
				t.Fatalf("after append+truncate: %q", got)
			}
			// Rename, ReadDir, Remove.
			q := filepath.Join(b.root, "b.txt")
			if err := b.fsys.Rename(p, q); err != nil {
				t.Fatal(err)
			}
			sub := filepath.Join(b.root, "sub")
			if err := b.fsys.MkdirAll(sub, 0o755); err != nil {
				t.Fatal(err)
			}
			des, err := b.fsys.ReadDir(b.root)
			if err != nil || len(des) != 2 {
				t.Fatalf("readdir: %v %v", des, err)
			}
			if des[0].Name() != "b.txt" || des[0].IsDir() || des[1].Name() != "sub" || !des[1].IsDir() {
				t.Fatalf("entries: %v %v", des[0], des[1])
			}
			if err := b.fsys.SyncDir(b.root); err != nil {
				t.Fatal(err)
			}
			if err := b.fsys.Remove(q); err != nil {
				t.Fatal(err)
			}
			if err := b.fsys.Remove(q); !os.IsNotExist(err) {
				t.Fatalf("double remove: %v", err)
			}
			// CreateTemp produces distinct names with the pattern's shape.
			t1, err := CreateTemp(b.fsys, b.root, "x.tmp-*")
			if err != nil {
				t.Fatal(err)
			}
			t2, err := CreateTemp(b.fsys, b.root, "x.tmp-*")
			if err != nil {
				t.Fatal(err)
			}
			if t1.Name() == t2.Name() {
				t.Fatalf("temp collision: %s", t1.Name())
			}
			t1.Close()
			t2.Close()
		})
	}
}

func TestMemCrashDiscardsUnsynced(t *testing.T) {
	m := NewMemFS()
	writeVia(t, m, "/synced.txt", "keep", true)
	writeVia(t, m, "/unsynced.txt", "lose", false)

	// Partially synced file: sync "AB", then append "CD" without sync.
	f, err := m.OpenFile("/partial.txt", os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("AB"))
	f.Sync()
	f.Write([]byte("CD"))

	m.Crash()

	if _, err := f.Write([]byte("ZZ")); !errors.Is(err, ErrStaleHandle.Err) {
		t.Fatalf("stale handle write: %v", err)
	}
	if got := readAll(t, m, "/synced.txt"); string(got) != "keep" {
		t.Fatalf("synced: %q", got)
	}
	if _, err := Open(m, "/unsynced.txt"); !os.IsNotExist(err) {
		t.Fatalf("unsynced survived: %v", err)
	}
	if got := readAll(t, m, "/partial.txt"); string(got) != "AB" {
		t.Fatalf("partial: %q", got)
	}
}

func TestMemCrashRevertsUnsyncedRename(t *testing.T) {
	m := NewMemFS()
	writeVia(t, m, "/old.txt", "v1", true)
	if err := m.Rename("/old.txt", "/new.txt"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	// No SyncDir: the rename is lost, the old binding revives.
	if _, err := Open(m, "/new.txt"); !os.IsNotExist(err) {
		t.Fatalf("unsynced rename survived: %v", err)
	}
	if got := readAll(t, m, "/old.txt"); string(got) != "v1" {
		t.Fatalf("old binding: %q", got)
	}

	// With SyncDir the rename is durable.
	if err := m.Rename("/old.txt", "/new.txt"); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("/"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if got := readAll(t, m, "/new.txt"); string(got) != "v1" {
		t.Fatalf("synced rename: %q", got)
	}
	if _, err := Open(m, "/old.txt"); !os.IsNotExist(err) {
		t.Fatalf("old name survived the synced rename: %v", err)
	}
}

func TestMemCrashRevertsUnsyncedRemove(t *testing.T) {
	m := NewMemFS()
	writeVia(t, m, "/doc.txt", "data", true)
	if err := m.Remove("/doc.txt"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if got := readAll(t, m, "/doc.txt"); string(got) != "data" {
		t.Fatalf("unsynced remove must revert: %q", got)
	}
	if err := m.Remove("/doc.txt"); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("/"); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if _, err := Open(m, "/doc.txt"); !os.IsNotExist(err) {
		t.Fatalf("synced remove must stick: %v", err)
	}
}

func TestFaultInjection(t *testing.T) {
	m := NewMemFS()
	ff := NewFaultFS(m, nil)

	// Pass-through with a nil script, counting ops.
	writeVia(t, ff, "/a.txt", "one", true)
	if ff.OpCount() == 0 {
		t.Fatal("operations not counted")
	}

	// Transient failure: exactly the next write fails, the retry works.
	f, err := ff.OpenFile("/a.txt", os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	next := ff.OpCount() + 1
	ff.SetScript(func(i int64, _ OpRef) Decision {
		if i == next {
			return Decision{Err: ErrInjected}
		}
		return Decision{}
	})
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected write: %v", err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("retry after transient: %v", err)
	}

	// Persistent failure: every sync from now on fails.
	ff.SetScript(FailFrom(1, ErrInjected, OpSync))
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("persistent sync 1: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("persistent sync 2: %v", err)
	}
	if _, err := f.Write([]byte("y")); err != nil {
		t.Fatalf("non-matching kind must pass: %v", err)
	}
	f.Close()
}

func TestFaultTornWrite(t *testing.T) {
	m := NewMemFS()
	ff := NewFaultFS(m, nil)
	f, err := ff.OpenFile("/t.txt", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ff.SetScript(func(n int64, op OpRef) Decision {
		if op.Kind == OpWrite {
			return Decision{Err: ErrInjected, TornPrefix: 3}
		}
		return Decision{}
	})
	n, err := f.Write([]byte("ABCDEF"))
	if !errors.Is(err, ErrInjected) || n != 3 {
		t.Fatalf("torn write: n=%d err=%v", n, err)
	}
	ff.SetScript(nil)
	f.Close()
	if got := readAll(t, m, "/t.txt"); string(got) != "ABC" {
		t.Fatalf("torn prefix: %q", got)
	}
}

func TestFaultCrashAt(t *testing.T) {
	m := NewMemFS()
	ff := NewFaultFS(m, nil)
	writeVia(t, ff, "/keep.txt", "durable", true)

	f, err := ff.OpenFile("/keep.txt", os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	ff.SetScript(CrashAt(ff.OpCount() + 1))
	if _, err := f.Write([]byte(" lost")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash op: %v", err)
	}
	if !ff.Crashed() {
		t.Fatal("crash flag not set")
	}
	// Everything after the crash fails, whatever the script says.
	ff.SetScript(nil)
	if _, err := Open(ff, "/keep.txt"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash op: %v", err)
	}
	// The inner fs survived with only the durable bytes.
	if got := readAll(t, m, "/keep.txt"); string(got) != "durable" {
		t.Fatalf("post-crash content: %q", got)
	}
	ff.ClearCrash()
	if _, err := Open(ff, "/keep.txt"); err != nil {
		t.Fatalf("after ClearCrash: %v", err)
	}
}

func TestMemReadSequential(t *testing.T) {
	m := NewMemFS()
	writeVia(t, m, "/r.txt", "0123456789", false)
	f, err := Open(m, "/r.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4)
	n, err := f.Read(buf)
	if err != nil || string(buf[:n]) != "0123" {
		t.Fatalf("read 1: %q %v", buf[:n], err)
	}
	rest, err := io.ReadAll(f)
	if err != nil || string(rest) != "456789" {
		t.Fatalf("read rest: %q %v", rest, err)
	}
}

// TestMemSyncMatchesFullCopy drives one file through random appends,
// overwrites from offset 0 (a fresh non-append handle), truncations both
// ways, O_TRUNC reopens, syncs and crashes, and checks after every step
// that the bytes a crash would preserve are what a whole-file copy at each
// Sync would have kept: Sync copies only the tail past the lowest offset
// touched since the last one.
func TestMemSyncMatchesFullCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMemFS()
	open := func(flag int) File {
		f, err := m.OpenFile("/f", os.O_CREATE|os.O_RDWR|flag, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	var live, durable []byte
	f := open(os.O_APPEND)
	for step := 0; step < 4000; step++ {
		p := make([]byte, 1+rng.Intn(40))
		rng.Read(p)
		switch op := rng.Intn(12); {
		case op < 5: // append
			f.Write(p)
			live = append(live, p...)
		case op < 6: // overwrite the head through a second handle
			h := open(0)
			h.Write(p)
			h.Close()
			live = append(p, live[min(len(p), len(live)):]...)
		case op < 8: // truncate, shrinking or zero-extending
			size := rng.Intn(len(live) + 20)
			if err := f.Truncate(int64(size)); err != nil {
				t.Fatal(err)
			}
			live = append(live, make([]byte, 20)...)[:size]
		case op < 9:
			open(os.O_TRUNC).Close()
			live = nil
		case op < 11:
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			durable = append([]byte(nil), live...)
		default:
			m.Crash()
			live = append([]byte(nil), durable...)
			f = open(os.O_APPEND)
		}
		if got := readAll(t, m, "/f"); !bytes.Equal(got, live) {
			t.Fatalf("step %d: live content diverged from the model", step)
		}
		if got, _ := m.SyncedContent("/f"); !bytes.Equal(got, durable) {
			t.Fatalf("step %d: synced content diverged from the whole-file copy", step)
		}
	}
}
