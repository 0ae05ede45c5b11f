// Package vfs provides the filesystem abstraction under the durability
// stack (internal/persist, internal/durable, internal/durable/sharded)
// with three backends: the passthrough OS backend (OS), an in-memory
// filesystem with an explicit crash model (MemFS), and a fault-injecting
// wrapper (FaultFS) that runs every operation through a scripted
// schedule. The production path pays one interface indirection per
// operation; everything else exists so tests can torture the durability
// layer the way a hostile disk would.
//
// # Fault schedules
//
// A FaultFS counts every intercepted operation (1-based, globally across
// the FS and all files opened through it) and asks its Script for a
// Decision per operation:
//
//   - Decision{} lets the operation through.
//   - Decision{Err: e} fails it with e. The script sees the operation
//     counter, so transient faults (fail once, pass on retry) and
//     persistent faults (fail forever after N) are both expressible —
//     see FailFrom.
//   - Decision{Err: e, TornPrefix: k} on a write persists only the
//     first k bytes before failing — a torn write, the case journal
//     tail repair exists for.
//   - Decision{Crash: true} simulates power loss at this exact
//     operation: the inner filesystem reverts to its durable state
//     (Crasher.Crash), and this plus every later operation fails with
//     ErrCrashed. Close is never intercepted (it performs no I/O the
//     crash model cares about), so crash sites are exactly the
//     operations whose loss a journaled system must tolerate.
//
// The operation counter makes exhaustive crash-point testing mechanical:
// run a workload once against a pass-through script to learn the total
// operation count N (OpCount), then run it N more times with CrashAt(i)
// for every i, recovering from the survived state each time.
//
// # Crash model (MemFS)
//
// MemFS tracks, per file, the live byte content and the content covered
// by the last File.Sync, and per directory, the live entry table and the
// durable one. Crash() reverts the filesystem to the durable view —
// synced contents under durable names — and invalidates every open
// handle (ErrStaleHandle), so goroutines of an abandoned pre-crash
// system cannot write into the post-crash state.
//
// Durability follows the relaxed model journaling filesystems provide in
// practice (ext4 ordered mode), which is what the journal's create-
// append-fsync pattern relies on:
//
//   - File.Sync persists the file's bytes AND its current directory
//     entry. A freshly created, fsynced journal file survives a crash
//     without a separate directory fsync.
//   - Rename and Remove become durable only at the next SyncDir of the
//     parent directory (or a later File.Sync through the renamed name).
//     A crash between rename and directory sync revives the old
//     binding — the torn-rename window AtomicWriteFS's dir-fsync closes.
//   - A never-synced file whose directory was synced survives as an
//     empty file (the entry was durable, the content never was).
//   - Directories themselves are durable on creation, and RemoveAll is
//     durable immediately (simplifications; only offline maintenance
//     paths use them).
package vfs
