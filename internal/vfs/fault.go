package vfs

import (
	"errors"
	"io/fs"
	"sync"
	"sync/atomic"
)

// OpKind names one class of filesystem operation for fault scripts.
type OpKind int

// Operation kinds, in the order a schedule is likely to reference them.
const (
	OpOpen OpKind = iota
	OpRead
	OpWrite
	OpSync
	OpTruncate
	OpClose
	OpStatFile
	OpRename
	OpRemove
	OpRemoveAll
	OpMkdirAll
	OpReadDir
	OpStat
	OpSyncDir
)

var opKindNames = [...]string{
	OpOpen: "open", OpRead: "read", OpWrite: "write", OpSync: "sync",
	OpTruncate: "truncate", OpClose: "close", OpStatFile: "fstat",
	OpRename: "rename", OpRemove: "remove", OpRemoveAll: "removeall",
	OpMkdirAll: "mkdirall", OpReadDir: "readdir", OpStat: "stat",
	OpSyncDir: "syncdir",
}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return "op?"
}

// OpRef identifies one intercepted operation: its kind and the path it
// targets (the file's open path for handle operations).
type OpRef struct {
	Kind OpKind
	Path string
}

// Decision is a fault script's verdict for one operation. The zero
// value lets the operation through.
type Decision struct {
	// Err fails the operation with this error (after any TornPrefix
	// bytes were persisted). The injection is per-operation: whether the
	// failure is transient or persistent is the script's choice across
	// subsequent calls.
	Err error
	// TornPrefix, with Err set on a write, persists only the first
	// TornPrefix bytes before failing — a torn write.
	TornPrefix int
	// Crash kills the disk: the inner filesystem (which must implement
	// Crasher) drops all un-synced state, this operation and every later
	// one fail with ErrCrashed. The filesystem is inspected or recovered
	// through the inner FS afterwards.
	Crash bool
}

// Script decides the fate of the n-th operation (1-based global
// counter across files and the FS). It must be safe for concurrent
// calls; the FaultFS serializes them.
type Script func(n int64, op OpRef) Decision

// Crasher is the crash hook an inner filesystem provides (MemFS does).
type Crasher interface{ Crash() }

// ErrInjected is the default injected fault error; scripts may return
// richer errors instead.
var ErrInjected = errors.New("vfs: injected fault")

// ErrCrashed fails every operation after a simulated crash.
var ErrCrashed = errors.New("vfs: simulated crash")

// FaultFS wraps an inner FS and runs every operation through a fault
// script. A nil script passes everything through.
type FaultFS struct {
	inner FS

	mu      sync.Mutex
	script  Script
	n       atomic.Int64
	crashed atomic.Bool
}

// NewFaultFS wraps inner with a fault script.
func NewFaultFS(inner FS, script Script) *FaultFS {
	return &FaultFS{inner: inner, script: script}
}

// SetScript replaces the fault schedule (e.g. clearing it before heal).
func (f *FaultFS) SetScript(script Script) {
	f.mu.Lock()
	f.script = script
	f.mu.Unlock()
}

// OpCount returns how many operations have been intercepted so far —
// a profiling run uses it to enumerate the crash sites of a workload.
func (f *FaultFS) OpCount() int64 { return f.n.Load() }

// Crashed reports whether a scripted crash happened.
func (f *FaultFS) Crashed() bool { return f.crashed.Load() }

// ClearCrash re-arms the FaultFS after the inner filesystem was
// recovered (the crash flag otherwise fails every operation).
func (f *FaultFS) ClearCrash() { f.crashed.Store(false) }

// decide runs the script for one operation and applies crash handling.
// It returns the error the operation must fail with (nil = proceed) and
// the torn-prefix byte count for writes.
func (f *FaultFS) decide(kind OpKind, path string) (error, int) {
	if f.crashed.Load() {
		return &fs.PathError{Op: kind.String(), Path: path, Err: ErrCrashed}, 0
	}
	n := f.n.Add(1)
	f.mu.Lock()
	script := f.script
	f.mu.Unlock()
	if script == nil {
		return nil, 0
	}
	d := script(n, OpRef{Kind: kind, Path: path})
	if d.Crash {
		if c, ok := f.inner.(Crasher); ok {
			c.Crash()
		}
		f.crashed.Store(true)
		return &fs.PathError{Op: kind.String(), Path: path, Err: ErrCrashed}, 0
	}
	if d.Err != nil {
		return &fs.PathError{Op: kind.String(), Path: path, Err: d.Err}, d.TornPrefix
	}
	return nil, 0
}

// FS interface.

func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if err, _ := f.decide(OpOpen, name); err != nil {
		return nil, err
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

func (f *FaultFS) Rename(oldname, newname string) error {
	if err, _ := f.decide(OpRename, oldname); err != nil {
		return err
	}
	return f.inner.Rename(oldname, newname)
}

func (f *FaultFS) Remove(name string) error {
	if err, _ := f.decide(OpRemove, name); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) RemoveAll(path string) error {
	if err, _ := f.decide(OpRemoveAll, path); err != nil {
		return err
	}
	return f.inner.RemoveAll(path)
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if err, _ := f.decide(OpMkdirAll, path); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if err, _ := f.decide(OpReadDir, name); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	if err, _ := f.decide(OpStat, name); err != nil {
		return nil, err
	}
	return f.inner.Stat(name)
}

func (f *FaultFS) SyncDir(dir string) error {
	if err, _ := f.decide(OpSyncDir, dir); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// faultFile threads handle operations through the same script.
type faultFile struct {
	fs    *FaultFS
	inner File
}

func (f *faultFile) Read(p []byte) (int, error) {
	if err, _ := f.fs.decide(OpRead, f.inner.Name()); err != nil {
		return 0, err
	}
	return f.inner.Read(p)
}

func (f *faultFile) Write(p []byte) (int, error) {
	err, torn := f.fs.decide(OpWrite, f.inner.Name())
	if err != nil {
		n := 0
		if torn > 0 {
			if torn > len(p) {
				torn = len(p)
			}
			// Persist the torn prefix through the inner file, then fail:
			// the journal sees a short write it must roll back or repair.
			n, _ = f.inner.Write(p[:torn])
		}
		return n, err
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error {
	if err, _ := f.fs.decide(OpSync, f.inner.Name()); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if err, _ := f.fs.decide(OpTruncate, f.inner.Name()); err != nil {
		return err
	}
	return f.inner.Truncate(size)
}

func (f *faultFile) Stat() (fs.FileInfo, error) {
	if err, _ := f.fs.decide(OpStatFile, f.inner.Name()); err != nil {
		return nil, err
	}
	return f.inner.Stat()
}

func (f *faultFile) Close() error {
	// Close is never failed or counted: it performs no I/O the crash
	// model cares about, and failing it would only leak handles.
	return f.inner.Close()
}

func (f *faultFile) Name() string { return f.inner.Name() }

// FailFrom returns a script failing every operation from the n-th on
// that matches kinds (all kinds when empty) — a persistent fault.
func FailFrom(n int64, err error, kinds ...OpKind) Script {
	match := func(k OpKind) bool {
		if len(kinds) == 0 {
			return true
		}
		for _, want := range kinds {
			if k == want {
				return true
			}
		}
		return false
	}
	return func(i int64, op OpRef) Decision {
		if i >= n && match(op.Kind) {
			return Decision{Err: err}
		}
		return Decision{}
	}
}

// CrashAt returns a script crashing the disk at the n-th operation.
func CrashAt(n int64) Script {
	return func(i int64, _ OpRef) Decision {
		return Decision{Crash: i == n}
	}
}
