package adept2

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"adept2/internal/durable"
	"adept2/internal/durable/sharded"
	"adept2/internal/engine"
	"adept2/internal/persist"
)

// refuseExistingData guards fresh multi-shard layout creation: a journal
// (or snapshot store) already populated as the manifest-less one-shard
// layout — l and man as sharded.Resolve returned them — must be resharded
// offline, not silently reinterpreted under a new partitioning.
func refuseExistingData(l sharded.Layout, man *sharded.Manifest) error {
	_, tail, err := persist.LoadJournalSuffixFS(l.FS, l.Base, maxSeq)
	if err != nil {
		return err
	}
	if tail.LastSeq > 0 {
		return fmt.Errorf(
			"adept2: %s holds one-shard records (journal ends at seq %d): reshard offline (adeptctl reshard) instead of opening with a shard count",
			l.Base, tail.LastSeq)
	}
	if len(man.Generations) > 0 {
		return fmt.Errorf(
			"adept2: %s already has one-shard snapshots: reshard offline (adeptctl reshard)", l.SnapDir(0))
	}
	return nil
}

// shardedLayout derives the Layout for a base path and config; the shard
// count is filled in from the manifest (sharded.Resolve).
func shardedLayout(c *config, path string) sharded.Layout {
	return sharded.Layout{Base: path, SnapBase: c.ckpt.Dir, FS: c.fsys()}
}

// keepGenerations is how many snapshot generations a checkpoint leaves on
// disk: the one it wrote and two to fall back to.
const keepGenerations = 3

// openSharded opens the layout l described by man: recoverLayout rebuilds
// the state, then the shard journals resume under a WAL router.
func openSharded(c *config, l sharded.Layout, man *sharded.Manifest) (*System, error) {
	if c.ckpt.Every == 0 {
		c.ckpt.Every = 1024
	}
	recoverStart := time.Now()
	sys, res, lastControl, err := recoverLayout(c, l, man, false)
	if err != nil {
		return nil, err
	}

	// Replay is done: install the telemetry plane (see metrics.go) so the
	// WAL committers record into it but nothing recovered above did.
	sys.met = newMetricsSet(c, l.Shards)
	recordRecovery(sys.met, sys.recovery, time.Since(recoverStart))

	// Resume every shard journal (repairing torn tails) without a second
	// full read; journals fully folded into snapshots continue the
	// snapshot's numbering.
	tails := make([]persist.TailInfo, l.Shards)
	for k := range tails {
		tails[k] = res.Shards[k].Tail
		if res.Gen != nil && res.Gen.Parts[k].Seq > tails[k].LastSeq {
			tails[k].LastSeq = res.Gen.Parts[k].Seq
		}
	}
	var copts durable.CommitterOptions
	if sys.met != nil {
		copts.Metrics = &sys.met.Committer
	}
	wal, err := sharded.OpenWAL(l, tails, copts)
	if err != nil {
		return nil, err
	}
	wal.SetEpoch(lastControl)

	sys.wal = wal
	sys.ckpt = newCheckpointer(&c.ckpt, wal.TotalSeq())
	sys.startSweeper(c.sweepEvery)
	return sys, nil
}

// recoverLayout is Open's recovery, everything before the journals
// resume: every shard's newest-valid generation snapshot is loaded and
// restored in parallel (sharded.Recover), the journal suffixes are
// replayed in the epoch-merged order (data shards concurrently between
// control-record barriers), and the system's RecoveryInfo says what was
// done. It returns the system with its layout, manifest and stores set,
// the load result whose tails the journals resume from, and the recovered
// control epoch. Open resumes the journals on the result. VerifyLayout
// passes inspect, which opens the snapshot stores without creating or
// sweeping anything, and discards the system: its verdict is this code's.
func recoverLayout(c *config, l sharded.Layout, man *sharded.Manifest, inspect bool) (*System, *sharded.LoadResult, int, error) {
	stores := make([]*durable.SnapshotStore, l.Shards)
	for k := range stores {
		if inspect {
			stores[k] = durable.ViewStore(c.fsys(), l.SnapDir(k))
			continue
		}
		st, err := durable.OpenStoreFS(c.fsys(), l.SnapDir(k))
		if err != nil {
			return nil, nil, 0, err
		}
		stores[k] = st
	}

	// Each generation attempt restores into a fresh system, with its own
	// copy of any caller-supplied org model, so a half-restored failure
	// cannot leak into the fallback.
	var sys *System
	fresh := func() *engine.Engine {
		sys = newSystem(c)
		return sys.eng
	}
	_, res, err := sharded.Recover(l, man, stores, fresh)
	if err != nil {
		return nil, nil, 0, err
	}

	apply := func(rec *persist.Record) error {
		if err := sys.apply(rec.Op, rec.Args); err != nil {
			return fmt.Errorf("persist: replay record %d (%s): %w", rec.Seq, rec.Op, err)
		}
		return nil
	}
	lastControl, perShard, err := sharded.MergeApply(res, isControlOp, apply)
	if err != nil {
		return nil, nil, 0, err
	}
	sys.eng.SortInstanceOrder()

	info := &RecoveryInfo{
		Fallbacks: res.Fallbacks,
		Shards:    l.Shards,
	}
	for k := range res.Shards {
		sr := ShardRecovery{Shard: k, Replayed: perShard[k]}
		info.Replayed += perShard[k]
		if st := res.Shards[k].State; st != nil {
			sr.SnapshotSeq = st.Seq
			sr.SnapshotFile = res.Shards[k].File
		}
		info.PerShard = append(info.PerShard, sr)
	}
	if res.Gen != nil {
		info.SnapshotSeq = res.Shards[0].State.Seq
		info.SnapshotFile = res.Shards[0].File
	} else {
		info.FullReplay = true
	}

	sys.layout = l
	sys.stores = stores
	sys.gman = man
	sys.recovery = info
	return sys, res, lastControl, nil
}

// checkpoint writes one generation: all shard snapshots captured under a
// single exclusive barrier (one consistent cut at one epoch, cheap clones
// only), tied to fully durable journal positions — the pipelines are
// synced first, so a snapshot never covers records a crash could still
// lose — then encoded and written concurrently outside the barrier and
// committed by the global manifest rewrite. Returns shard 0's snapshot
// file and covered sequence number.
func (s *System) checkpoint() (string, int, error) {
	// The manifest read-modify-write and the "one generation at a time"
	// invariant need explicit serialization: an explicit Checkpoint may
	// race the background one.
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()

	s.snapMu.Lock()
	if err := s.wal.Sync(); err != nil {
		s.snapMu.Unlock()
		return "", 0, err
	}
	seqs := s.wal.Seqs()
	epoch := s.wal.Epoch()
	staged := durable.Stage(s.eng, 0)
	s.snapMu.Unlock()

	parts := staged.Split(seqs, epoch, s.wal.ShardFor)
	man, file0, err := sharded.WriteCheckpoint(s.layout, s.gman, s.stores, parts, epoch, seqs, keepGenerations)
	if err != nil {
		return file0, seqs[0], err
	}
	s.gman = man
	total := 0
	for _, q := range seqs {
		total += q
	}
	s.ckpt.mu.Lock()
	if total > s.ckpt.lastSeq {
		s.ckpt.lastSeq = total
	}
	s.ckpt.mu.Unlock()
	return file0, seqs[0], nil
}

// Reshard rewrites the durability layout at path from its current shard
// count to n, offline: it recovers the full state, writes a fresh
// generation of per-shard snapshots under the NEW instance-to-shard
// hash, commits the new global manifest (the atomic switch point), and
// removes artifacts the new layout no longer references. Journals of
// surviving shards are kept — their records are covered by the new
// snapshots and fenced off from any future full replay by the
// manifest's per-shard replay floors. Resharding to the current count
// just writes a fresh generation (and, for a directory that had none, the
// global manifest).
//
// Crash safety: everything written before the manifest commit is inert
// under the old layout (extra snapshot files only); a crash between the
// commit and the cleanup of now-stray shard journals (when shrinking)
// leaves a layout that refuses a normal Open — rerunning Reshard sweeps
// those journals first (their records are covered by the committed
// generation) and finishes the job.
func Reshard(path string, n int, opts ...Option) error {
	if n < 1 {
		return fmt.Errorf("adept2: reshard: invalid shard count %d", n)
	}
	var c config
	for _, o := range opts {
		o(&c)
	}
	old, man, found, err := sharded.Resolve(shardedLayout(&c, path))
	if err != nil {
		return err
	}

	// Complete an interrupted shrink: journals past the manifest's shard
	// count block Open, but once a generation committed, their records
	// are folded into its snapshots — sweep and proceed. Only a manifest
	// on disk proves that commit.
	if found && len(man.Generations) > 0 {
		stray, err := sharded.StrayShardsFS(c.fsys(), path, man.Shards)
		if err != nil {
			return err
		}
		for _, k := range stray {
			if err := c.fsys().Remove(old.JournalPath(k)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("adept2: reshard: sweep stray journal: %w", err)
			}
			if err := c.fsys().RemoveAll(old.SnapDir(k)); err != nil {
				return fmt.Errorf("adept2: reshard: sweep stray snapshots: %w", err)
			}
		}
	}

	// Recover through the caller's configuration (snapshot dir) with
	// automatic checkpoints off and the shard count taken from the layout;
	// the target count applies on write.
	ckpt := c.ckpt
	ckpt.Every, ckpt.Shards = -1, 0
	sys, err := Open(path, append(append([]Option(nil), opts...), WithCheckpointing(ckpt))...)
	if err != nil {
		return err
	}
	// Capture the cut: seqs of surviving shard journals carry over (their
	// records are folded into the new snapshots); fresh shards start
	// empty at seq 0. The cut's epoch is shard 0's head: every record
	// journaled so far — under the old partitioning — is ordered at or
	// below it, so records the new shards stamp with it replay after all
	// of them.
	seqs := make([]int, n)
	copy(seqs, sys.wal.Seqs())
	epoch := seqs[0]
	staged := durable.Stage(sys.eng, 0)
	if err := sys.Close(); err != nil {
		return err
	}

	l := old
	l.Shards = n
	stores := make([]*durable.SnapshotStore, n)
	for k := range stores {
		st, err := durable.OpenStoreFS(c.fsys(), l.SnapDir(k))
		if err != nil {
			return err
		}
		stores[k] = st
	}
	parts := staged.Split(seqs, epoch, func(id string) int { return sharded.ShardOf(id, n) })
	// The kept journals' existing records were partitioned under the old
	// shard count: record the cut as each shard's replay floor so a
	// future full-replay fallback refuses to reorder them — or, after a
	// shrink, to come up without the removed shards' instances (recovery
	// must go through this generation or a later one). A one-shard source
	// held everything in shard 0's total order, which a full replay still
	// reproduces: shard 0 only keeps the floor an earlier reshard set.
	base := sharded.NewManifest(n)
	base.ReplayFloors = append([]int(nil), seqs...)
	if old.Shards == 1 {
		base.ReplayFloors[0] = 0
		if len(man.ReplayFloors) > 0 {
			base.ReplayFloors[0] = man.ReplayFloors[0]
		}
	}
	if _, _, err := sharded.WriteCheckpoint(l, base, stores, parts, epoch, seqs, 1); err != nil {
		return err
	}

	// The manifest committed the new layout; remove what it obsoletes:
	// journals and snapshot stores of shards past the new count.
	for k := n; k < old.Shards; k++ {
		if err := c.fsys().Remove(old.JournalPath(k)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("adept2: reshard: remove stray journal: %w", err)
		}
		if err := c.fsys().RemoveAll(old.SnapDir(k)); err != nil {
			return fmt.Errorf("adept2: reshard: remove stray snapshots: %w", err)
		}
	}
	// Fsync the directory so the removals are durable alongside the
	// manifest.
	if err := c.fsys().SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("adept2: reshard: sync directory: %w", err)
	}
	return nil
}
