// Package durable is the checkpointed durability subsystem layered on top
// of the command journal in internal/persist: it turns persistence from
// "append-one-fsync-one, replay-everything" into a write-ahead pipeline
// with group commit, background state snapshots, and snapshot + journal-
// suffix recovery — the building blocks internal/durable/sharded assembles
// into the one layout of N >= 1 shards every adept2.Open runs. It is the
// substitute for the ADEPT2 prototype's RDBMS-backed storage layer at the
// scale the ROADMAP targets: bounded-time recovery is a precondition for
// adaptivity at scale (compare SmartPM's recovery-by-adaptation and the
// PMS robustness requirements in de Leoni's pervasive-scenario work).
//
// # Group commit
//
// Every shard journal of every Open is flushed by one Committer
// (sharded.OpenWAL starts it; there is no other append path). It batches
// concurrent appends into one buffered write plus one fsync. Append stages
// a record in the journal's user-space buffer (serialized by the journal
// lock, preserving sequence order) and wakes nobody; Kick wakes the
// flusher, so a caller staging several records wakes it once; WaitSeq
// blocks until a flush covering a record completed. A single background
// flusher drains the batch with exactly one buffered write + one fsync and
// wakes every covered waiter. The in-flight fsync is the gather window —
// appends arriving while it runs form the next batch, so the batch size
// follows the load, and a lone writer pays one write + one fsync per
// command.
//
// Error semantics: a record is known durable once a WaitSeq on it (or the
// Wait on its receipt) returned nil. Flush failures do NOT immediately
// poison the pipeline — see the retry/wedge/heal state machine below.
//
// Waiter channels. Every wait is a WaitSeq: a control record's append is
// Append plus WaitSeq, and Sync is WaitSeq on the journal's head. One
// that has to park does so on a one-slot channel the flusher sends the
// outcome on (a channel and not a condition, so that a context can cancel
// the wait). The channels are recycled through a free
// list under the committer's lock, by one rule: a channel goes back only
// after its value was received. Then it is empty and its waiter entry is
// gone (the flusher removes an entry as it sends), so the next wait that
// takes it can only ever receive its own outcome — a stale nil would
// acknowledge a record that is not durable, a stale error would fail one
// that is. A wait abandoned on ctx.Done() therefore abandons its channel
// too: its entry is still parked and the flusher will send that record's
// outcome on it, at a time the waiter cannot know. One cancelled wait
// leaks one channel (about a hundred bytes, collected with the entry);
// taking the entry back out under the lock instead would put a linear
// scan on the cancel path to save an allocation on the next wait after a
// cancellation, which is not the path that is hot.
//
// # Retry, wedge, heal
//
// The journal keeps every not-yet-flushed record encoded in a
// user-space pending buffer, which makes a failed flush
// RETRYABLE without tripping over the fsync-gate problem (a failed fsync
// may silently drop the kernel's dirty pages, so re-fsyncing the same
// file descriptor proves nothing). A failed flush marks the physical
// tail dirty; the retry path never trusts kernel pages — it truncates
// the file back to the last fsync-covered offset, re-verifies the size,
// rewrites the pending records from user space, and fsyncs. The
// committer drives that retry with bounded exponential backoff (retryBase,
// 1 ms, doubling up to retryCap, 50 ms, at most retryMax = 4 retries per
// flush), so transient faults — a momentary ENOSPC, a hiccuping device —
// are absorbed invisibly (counted in Retries).
//
// Only when the budget is exhausted does the committer WEDGE: the error
// becomes sticky, every waiter (current and future) settles with it,
// and new appends are refused. The state machine per committer is
//
//	healthy --flush error--> retrying --success--> healthy
//	                            |
//	                            +--budget exhausted--> wedged --Heal--> healthy
//
// Wedging is deliberately not fatal: the facade degrades to READ-ONLY
// serving. The invariants of degraded mode are (a) reads, pagination,
// and health reporting keep working; (b) every submission path fails
// fast with ErrWedged BEFORE mutating the engine (Applied=false —
// nothing happened); (c) records accepted before the wedge are retained
// in the pending buffer, never dropped. Heal (Committer.Heal, WAL.Heal,
// System.Heal) restores full service in place: it re-opens the journal
// file, refuses if the file shrank below the durable offset (that is
// data loss, not a transient fault), truncates any unfsynced tail,
// swaps the handle, and re-flushes the retained records — so a
// wedge/heal cycle loses neither acknowledged nor accepted writes. If
// the fault persists, Heal fails (or the next flush re-wedges) and the
// system stays degraded; Heal is retryable.
//
// A failing background checkpoint, by contrast, never wedges: commands
// stay durable through the journal, so writes keep flowing while Health
// and HealthInfo surface the snapshot problem (and failed cleanup of
// stale snapshot files is merely counted — see CleanupErrs).
//
// # Snapshots
//
// A checkpoint's state has one form, SystemState: deployed schemas, org
// users, each instance's snapshot (markings, stats, history, data) with
// its bias operations, the worklist and the instance counter. Stage takes
// it under the facade's barrier as clones and references, without JSON
// work, and Split cuts it into per-shard parts. SnapshotStore.Write
// encodes a part — schemas through their own codec, bias operations
// through the change codec — outside the barrier, one goroutine per
// shard, into a checksummed file in the shard's snapshot directory. The
// file name ties a snapshot to the journal sequence number it covers and
// the control epoch it was cut at; nothing else in the directory is
// consulted (the per-store MANIFEST.json earlier builds kept there is
// ignored). Snapshot files are written atomically:
// payload to a temporary file, fsync, rename into place, directory fsync.
// A torn snapshot therefore never destroys an older good one, and a
// snapshot only takes part in recovery once a generation names it.
//
// Snapshot file layout (snap-<seq>.json, snap-<seq>.e<epoch>.json):
//
//	{"format":2,"seq":N,"len":L,"crc32":C,"rawLen":R}\n   <- header line
//	<L bytes of gzip-compressed SystemState JSON>          <- payload, CRC-32 (IEEE) = C
//
// Format 2 is the only container read or written: a part in any other
// format — the raw format 1 only the first checkpointing build wrote — is
// refused like a torn one, and recovery falls back past its generation.
// A directory that needs such a snapshot is re-checkpointed first by
// `adeptctl snapshot` of a build that reads both (commit 8068fca and
// earlier).
//
// Journal compaction (CompactJournal) rewrites a journal to the suffix
// not covered by a given snapshot, its lines byte for byte as the scan
// read them; the persist readers accept journals starting past sequence
// 1, and recovery then requires that snapshot.
//
// # One layout of N >= 1 shards (internal/durable/sharded)
//
// There is one durability layout, one recovery path, one checkpoint path
// and one append path; the shard count is a number, not a mode. Instances
// are hashed by instance ID onto shards (FNV-1a, baked into the layout),
// each shard owning its own journal, group-commit committer, and snapshot
// series. Shard 0's journal is the base path and its snapshot directory
// the base's sibling (or the configured directory itself), so a one-shard
// layout is exactly the directory a build before sharding wrote; epoch
// stamps are omitted there. Its invariants:
//
//   - Control log. Shard 0 is the control log: schema deploys, org/user
//     records, and schema evolutions append there. The epoch — the shard-0
//     sequence number of the newest durable control record — is stamped
//     onto every data-shard record. With more than one shard the facade
//     holds its snapshot barrier EXCLUSIVELY around control commands, so a
//     data record stamped with epoch e provably executed after control
//     record e and before the first control record past e; recovery
//     replays it in exactly that window (data shards concurrently between
//     control-record barriers).
//
//   - Epoch cut. A checkpoint captures every shard under one exclusive
//     barrier: one generation = one consistent cut at one epoch, recorded
//     in the global manifest <base>.MANIFEST.json (written only after
//     every part is durable). Recovery restores all parts of ONE
//     generation, never mixing cuts: a control change (an evolution
//     migrates instances without touching their shards' journals) between
//     two cuts would otherwise be double- or un-applied. A rejected part
//     (torn tail, checksum mismatch, version skew, missing file, failed
//     restore) therefore degrades recovery to the previous generation for
//     every shard, and finally to a full merged replay — corruption
//     degrades recovery time, never correctness. Part files are epoch-
//     qualified (snap-<seq>.e<epoch>.json) so a quiescent shard's parts
//     are not overwritten across cuts.
//
//   - No manifest means one shard. The global manifest is authoritative
//     for the shard count and the generation list. A directory without
//     one is the one-shard layout, and its generations are shard 0's
//     snapshot-directory listing (sharded.Resolve — the only code that
//     knows such directories exist): that is how a directory written
//     before sharding opens without conversion, and how a crash between a
//     first checkpoint's snapshot rename and its manifest write recovers.
//     The first checkpoint writes the manifest, keeping the listed
//     snapshots as older generations. With a manifest present, a snapshot
//     file no generation names is inert until the next checkpoint's
//     pruning pass sweeps it.
//
//   - Refusals, per shard, never fallbacks: a snapshot covering a sequence
//     number past the journal tail (the journal lost committed records —
//     silently truncating history would forge state), a compacted journal
//     whose first record no usable generation reaches (the prefix needed
//     for replay is gone), a data record whose epoch lies past the control
//     log's tail (the control journal lost committed records), shard
//     journals past the manifest's declared count holding records (shard
//     count mismatch — the partitioning function is authoritative), and a
//     full replay across a reshard floor.
//
//   - One recovery decision. sharded.Recover and MergeApply are the only
//     code that decides which generation restores, what replays on top,
//     and what is refused. adept2.VerifyLayout runs them through Open's own
//     recovery over stores that create and sweep nothing and discards the
//     rebuilt state, so `adeptctl verify` reports Open's fallbacks and
//     Open's refusal, word for word, rather than a second reading of these
//     rules.
//
//   - Resharding. Changing the shard count is an offline reshard
//     (adept2.Reshard): snapshot-all under the new hash, commit the new
//     global manifest, sweep the obsolete artifacts.
package durable
