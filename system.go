package adept2

import (
	"context"
	"fmt"
	"sync"
	"time"

	"adept2/internal/durable"
	"adept2/internal/durable/sharded"
	"adept2/internal/engine"
	"adept2/internal/evolution"
	"adept2/internal/fault"
	"adept2/internal/obs"
	"adept2/internal/org"
	"adept2/internal/vfs"
)

// System bundles the engine with the migration manager and the durable
// command journal Open attaches. All state-changing methods are journaled,
// so Open can rebuild the exact system state after a crash: the journal
// is a write-ahead log of N >= 1 shards, augmented by background state
// snapshots, and recovery replays only the journal suffixes past the
// newest valid snapshot generation; concurrent commands on a shard share
// one buffered write + one fsync per batch.
type System struct {
	eng *engine.Engine
	mgr *evolution.Manager

	// The durability pipeline, set by Open as a whole: the WAL routes
	// control records to shard 0 and data records by instance hash,
	// stores holds one snapshot store per shard, gman is the global
	// manifest, and ckpt drives background checkpoints. A system created
	// with New journals nothing: wal, stores, gman and ckpt stay nil and
	// layout only says "one shard".
	wal    *sharded.WAL
	layout sharded.Layout
	stores []*durable.SnapshotStore
	gman   *sharded.Manifest
	ckptMu sync.Mutex // serializes global-manifest read-modify-write
	ckpt   *checkpointer

	// snapMu is the snapshot barrier: every journaled command holds it
	// shared across "engine mutation + journal append", and a snapshot
	// capture holds it exclusively — so captures always observe command-
	// boundary-consistent state tied to exact journal sequence numbers.
	// With more than one shard, control commands (user, deploy, evolve)
	// hold it exclusively too: the epoch stamped onto data records is only
	// a valid recovery order if no data command is in flight between a
	// control command's engine mutation and its epoch advance.
	snapMu sync.RWMutex

	recovery *RecoveryInfo

	// nowFn is the system clock (unix nanos), injectable via WithClock
	// so deterministic soaks drive deadlines with a logical clock. Only
	// the live path reads it — every timestamp that matters is stamped
	// onto the journal record it belongs to, so replay never consults
	// the clock.
	nowFn func() int64
	// policy maps detected exceptions (activity failures, deadline
	// expiries) to compensating commands; see ExceptionPolicy.
	policy ExceptionPolicy

	// met is the telemetry plane (nil = obs.Disabled). It is installed
	// only AFTER recovery completes, so replay can never record live-
	// path metrics. sweepStop/sweepDone bound the in-process deadline
	// sweep timer (WithSweepInterval).
	met       *obs.Set
	sweepStop chan struct{}
	sweepDone chan struct{}
}

// now returns the current time in unix nanos from the configured clock.
func (s *System) now() int64 {
	if s.nowFn != nil {
		return s.nowFn()
	}
	return time.Now().UnixNano()
}

// checkpointer tracks automatic background snapshots.
type checkpointer struct {
	every int // journal growth (records) that triggers a snapshot; <=0 disables

	mu       sync.Mutex
	idle     *sync.Cond // signaled when an in-flight snapshot finishes
	lastSeq  int        // summed shard heads covered by the newest generation
	tried    int        // summed shard heads at the last attempt (backoff base on failure)
	inflight bool
	err      error // last background snapshot failure (diagnosed, not fatal)
}

func newCheckpointer(cfg *CheckpointConfig, lastSeq int) *checkpointer {
	ck := &checkpointer{every: cfg.Every, lastSeq: lastSeq}
	ck.idle = sync.NewCond(&ck.mu)
	return ck
}

// wait blocks until no background snapshot is in flight and returns the
// most recent background snapshot error.
func (ck *checkpointer) wait() error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	for ck.inflight {
		ck.idle.Wait()
	}
	return ck.err
}

// CheckpointConfig tunes the durability pipeline Open attaches (see
// WithCheckpointing). The zero value of every field selects a default,
// and the zero value as a whole is what Open uses without the option.
type CheckpointConfig struct {
	// Dir is the snapshot directory root: shard 0's snapshots live in Dir
	// itself, shard k > 0's in Dir/shard-k. Default: <journal path>.snapshots
	// next to each shard journal.
	Dir string
	// Every triggers a background snapshot when the journals grew by this
	// many records (summed over the shards) since the last one. Default
	// 1024; negative disables automatic snapshots (Checkpoint can still be
	// called explicitly).
	Every int
	// Deprecated: ignored, every layout group-commits. The declaration
	// stays only because the frozen bench/ names it in a struct literal.
	GroupCommit bool
	// Shards is the shard count of the layout: instances are hashed across
	// this many journals, each with its own committer and snapshot series,
	// under a global manifest (see internal/durable/sharded). 0 and 1 both
	// mean one shard, whose journal is the path handed to Open. The value
	// only matters when a layout is first created; opening an existing
	// layout takes the count from its manifest and refuses a conflicting
	// non-zero setting (reshard offline to change it).
	Shards int
}

// RecoveryInfo describes how Open rebuilt the system state.
type RecoveryInfo struct {
	// SnapshotSeq is the shard-0 journal sequence number of the snapshot
	// generation the recovery started from (0 when recovering by full
	// replay).
	SnapshotSeq int
	// SnapshotFile is the file name of shard 0's snapshot in that
	// generation ("" for full replay).
	SnapshotFile string
	// Replayed counts the journal records applied on top of the
	// generation (the whole journals for a full replay), summed across
	// shards.
	Replayed int
	// FullReplay reports that no snapshot was used.
	FullReplay bool
	// Fallbacks diagnoses snapshots that were present but rejected
	// (checksum mismatch, version skew, torn file, failed restore). Whole
	// generations fall back together.
	Fallbacks []string
	// Shards is the shard count of the recovered layout (>= 1).
	Shards int
	// PerShard details each shard's recovery, one entry per shard.
	PerShard []ShardRecovery
}

// ShardRecovery is one shard's slice of a recovery.
type ShardRecovery struct {
	// Shard is the shard index (0 is the control shard).
	Shard int
	// SnapshotSeq is the shard-journal sequence its snapshot covered.
	SnapshotSeq int
	// SnapshotFile is the snapshot file name ("" on full replay).
	SnapshotFile string
	// Replayed counts the shard's suffix records applied.
	Replayed int
}

// Option configures a System.
type Option func(*config)

type config struct {
	org    *org.Model
	ckpt   CheckpointConfig
	fs     vfs.FS
	nowFn  func() int64
	policy ExceptionPolicy

	// Observability (metrics.go): metrics are on by default; metricsOff
	// selects obs.Disabled, obsOpts tunes the trace ring, sweepEvery
	// runs the deadline timer.
	metricsOff bool
	obsOpts    obs.Options
	sweepEvery time.Duration
}

// fsys resolves the configured filesystem, defaulting to the real OS.
func (c *config) fsys() vfs.FS {
	if c.fs != nil {
		return c.fs
	}
	return vfs.OS()
}

// WithOrg supplies a pre-populated organizational model. The system
// works on its own copy, so a later change to m does not reach it.
func WithOrg(m *OrgModel) Option { return func(c *config) { c.org = m } }

// WithVFS routes every file access of the durability stack (journals,
// snapshots, manifests) through an explicit filesystem. Tests inject
// vfs.NewMemFS or vfs.NewFaultFS to simulate crashes and I/O faults; the
// default is the real OS filesystem.
func WithVFS(fsys vfs.FS) Option { return func(c *config) { c.fs = fsys } }

// WithCheckpointing tunes the durability pipeline of Open: where snapshots
// live, how often they are written, and the shard count of a layout
// created fresh. Without it Open runs the
// zero-value CheckpointConfig. It only takes effect through Open (and
// Reshard, VerifyLayout); New has no journal.
func WithCheckpointing(cfg CheckpointConfig) Option {
	return func(c *config) { c.ckpt = cfg }
}

// New creates a System.
func New(opts ...Option) *System {
	var c config
	for _, o := range opts {
		o(&c)
	}
	sys := newSystem(&c)
	sys.met = newMetricsSet(&c, 1)
	sys.startSweeper(c.sweepEvery)
	return sys
}

func newSystem(c *config) *System {
	var o *org.Model
	if c.org != nil {
		o = c.org.Clone()
	}
	e := engine.New(o)
	return &System{eng: e, mgr: evolution.NewManager(e), layout: sharded.Layout{Shards: 1},
		nowFn: c.nowFn, policy: c.policy}
}

// Open creates a System backed by the journal layout rooted at path,
// recovering any existing state first, then appending new commands.
// Recovery restores the newest valid snapshot generation and replays only
// the journal suffixes past it, falling back to older generations and
// finally to a full replay when snapshots are torn, corrupt, or version-
// skewed; Recovery reports what happened. WithCheckpointing tunes the
// pipeline (snapshot cadence and directory, shard count).
func Open(path string, opts ...Option) (*System, error) {
	sys, err := open(path, opts...)
	if err != nil {
		// Classify for errors.Is: durability-layer refusals to rebuild
		// state are tagged by the recovery code; everything else keeps
		// CodeInternal.
		return nil, wrapErr("open", "", err)
	}
	return sys, nil
}

func open(path string, opts ...Option) (*System, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}

	l, man, _, err := resolveLayout(&c, path, true)
	if err != nil {
		return nil, err
	}
	return openSharded(&c, l, man)
}

// resolveLayout is Open's reading of the layout at path. Layouts are
// self-describing: the global manifest next to the journal declares the
// shard count, and a directory without one is one shard
// (sharded.Resolve). A configured count > 1 creates a fresh layout — but
// never silently on top of existing one-shard data (reshard offline
// instead) — whose manifest is written only with create set: VerifyLayout
// surveys the layout Open would make without making it. found reports a
// manifest on disk.
func resolveLayout(c *config, path string, create bool) (l sharded.Layout, man *sharded.Manifest, found bool, err error) {
	l, man, found, err = sharded.Resolve(shardedLayout(c, path))
	if err != nil {
		return l, nil, false, err
	}
	switch want := c.ckpt.Shards; {
	case found && want > 0 && want != man.Shards:
		return l, nil, false, fault.Tagf(fault.VersionSkew,
			"adept2: layout at %s has %d shards but %d were requested: reshard offline (adeptctl reshard)",
			path, man.Shards, want)
	case !found && want > 1:
		if err := refuseExistingData(l, man); err != nil {
			return l, nil, false, err
		}
		l.Shards, man = want, sharded.NewManifest(want)
		if create {
			if err := sharded.WriteManifestFS(c.fsys(), path, man); err != nil {
				return l, nil, false, err
			}
		}
	}
	return l, man, found, nil
}

// Recovery reports how Open rebuilt the state (nil for systems created
// with New).
func (s *System) Recovery() *RecoveryInfo { return s.recovery }

// Close waits for an in-flight background snapshot, drains every shard's
// group-commit pipeline, and releases the journals.
func (s *System) Close() error {
	// The sweep timer goes first: no sweep may submit into a closing
	// committer.
	s.stopSweeper()
	if s.ckpt == nil {
		return nil // New(): no pipeline, nothing to release
	}
	firstErr := s.ckpt.wait()
	if err := s.wal.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Health reports asynchronous durability failures without waiting for
// the next command to surface them: a wedged group-commit committer
// (sticky flush error after exhausted retries, on any shard) or the most
// recent background checkpoint failure. nil means the pipeline is healthy.
func (s *System) Health() error {
	err := s.wedgedErr()
	if ck := s.ckpt; err == nil && ck != nil {
		ck.mu.Lock()
		if ck.err != nil {
			err = fmt.Errorf("adept2: background checkpoint failing: %w", ck.err)
		}
		ck.mu.Unlock()
	}
	if err != nil {
		return &Error{Code: CodeWedged, Op: "health", Err: err}
	}
	return nil
}

// wedgedErr reports only the write-path wedge (a committer whose flush
// retries are exhausted) — the condition that degrades the system to
// read-only serving. A failing background checkpoint does NOT wedge:
// commands stay durable through the journal, so writes keep flowing
// while Health surfaces the snapshot problem.
func (s *System) wedgedErr() error {
	if s.wal == nil {
		return nil // New(): no pipeline to wedge
	}
	return s.wal.Health()
}

// HealthInfo details the durability pipeline's condition beyond the
// first-error summary of Health.
type HealthInfo struct {
	// Wedged is the write-path wedge, if any: submissions fail fast with
	// ErrWedged until Heal succeeds. nil while writes flow.
	Wedged error
	// WedgedShards lists the wedged shards (empty while healthy).
	WedgedShards []int
	// CheckpointErr is the most recent background checkpoint failure
	// (does not wedge the system; cleared by the next success or a Heal).
	CheckpointErr error
	// CleanupErrs counts failed removals of stale snapshot and temp
	// files across all stores — a warning (disk not being reclaimed),
	// never a failure.
	CleanupErrs int64
	// FlushRetries counts the transient flush failures the committers
	// absorbed without wedging over the system's lifetime.
	FlushRetries int64
}

// HealthInfo returns the detailed pipeline condition (see the HealthInfo
// type). Cheap and non-blocking — safe to poll.
func (s *System) HealthInfo() HealthInfo {
	hi := HealthInfo{Wedged: s.wedgedErr()}
	if s.wal == nil {
		return hi // New(): no pipeline, nothing further to report
	}
	hi.WedgedShards = s.wal.WedgedShards()
	hi.FlushRetries = s.wal.Retries()
	s.ckpt.mu.Lock()
	hi.CheckpointErr = s.ckpt.err
	s.ckpt.mu.Unlock()
	for _, st := range s.stores {
		hi.CleanupErrs += st.CleanupErrs()
	}
	return hi
}

// Heal restores a wedged system to full service without a restart: every
// wedged shard's journal is re-opened and tail-repaired in place, its
// committer re-flushes the records retained in memory (no acknowledged
// or accepted write is ever dropped by a wedge/heal cycle), and
// submissions flow again. The sticky background-checkpoint error and its
// retry backoff are cleared too, so snapshotting resumes promptly. Heal
// on a healthy system is a no-op. If the underlying fault persists, the
// heal fails (or the next flush wedges again) — the system stays
// degraded and Heal can be retried.
func (s *System) Heal(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return &Error{Code: CodeCanceled, Op: "heal", Err: err}
	}
	healed := s.wedgedErr() != nil
	if healed {
		if err := s.wal.Heal(); err != nil {
			return wrapErr("heal", "", err)
		}
	}
	if ck := s.ckpt; ck != nil {
		ck.mu.Lock()
		ck.err = nil
		ck.tried = 0
		ck.mu.Unlock()
		if healed {
			// A successful heal forces a checkpoint: the wedge era may
			// have left a long un-snapshotted journal suffix, and the
			// next recovery should not have to replay it. A snapshot
			// failure is diagnosed like any background checkpoint
			// failure — the heal itself already succeeded.
			if _, _, cerr := s.Checkpoint(); cerr != nil {
				ck.mu.Lock()
				if ck.err == nil {
					ck.err = cerr
				}
				ck.mu.Unlock()
			}
		}
	}
	return nil
}

// Org reads the organizational model; a user is added by submitting
// AddUser.
func (s *System) Org() OrgReader { return s.eng.Org() }

// LatestVersion returns the newest deployed version of a type (0 if the
// type is not deployed).
func (s *System) LatestVersion(typeName string) int { return s.eng.LatestVersion(typeName) }

// WorkItems returns the work items visible to a user.
func (s *System) WorkItems(user string) []*WorkItem { return s.eng.WorkItems(user) }

// Instance looks up an instance.
func (s *System) Instance(id string) (*Instance, bool) { return s.eng.Instance(id) }

// Instances returns all instances in creation order.
func (s *System) Instances() []*Instance { return s.eng.Instances() }

// WorkItemsPage returns up to limit of a user's work items in item-ID
// order, starting after the cursor item ID ("" = beginning), plus the
// cursor for the next page ("" when the listing is exhausted). Unlike
// WorkItems it clones only one page per call — the read path for
// worklist browsers at large user counts.
func (s *System) WorkItemsPage(user, cursor string, limit int) ([]*WorkItem, string) {
	return s.eng.WorkItemsPage(user, cursor, limit)
}

// InstancesPage returns up to limit instances in creation order,
// starting after the cursor instance ID ("" = beginning), plus the
// cursor for the next page ("" when exhausted). Unlike Instances it
// copies only one page per call.
func (s *System) InstancesPage(cursor string, limit int) ([]*Instance, string) {
	return s.eng.InstancesPage(cursor, limit)
}

// lockControl acquires the command barrier for a control command. With
// more than one shard control commands hold the barrier exclusively: a
// data command observing the engine effect of a control command but
// stamping the pre-command epoch would replay on the wrong side of it
// after a crash. One-shard systems keep the cheap shared acquisition —
// the journal's total order needs no epoch.
func (s *System) lockControl() func() {
	if s.layout.Shards > 1 {
		s.snapMu.Lock()
		return s.snapMu.Unlock
	}
	s.snapMu.RLock()
	return s.snapMu.RUnlock
}

// Checkpoint synchronously captures the engine state at the current
// journal positions and writes a snapshot generation, returning shard 0's
// snapshot path and the shard-0 sequence number it covers. The capture
// quiesces commands for the (in-memory, fast) state export; serialization
// and the file writes happen outside the barrier.
func (s *System) Checkpoint() (string, int, error) {
	if s.ckpt == nil {
		return "", 0, fmt.Errorf("adept2: nothing to checkpoint: a system created with New has no journal (use Open)")
	}
	start := time.Now()
	file, seq, err := s.checkpoint()
	if m := s.met; m != nil {
		m.Checkpoint.Count.Inc()
		m.Checkpoint.Nanos.Observe(time.Since(start).Nanoseconds())
		if err != nil {
			m.Checkpoint.Failures.Inc()
		}
	}
	return file, seq, err
}

// maybeCheckpoint spawns a background snapshot when the journals grew past
// the configured threshold (summed shard heads) since the last one, at
// most one in flight. Callers just appended, so the pipeline exists.
func (s *System) maybeCheckpoint() {
	ck := s.ckpt
	if ck.every <= 0 {
		return
	}
	seq := s.wal.TotalSeq()
	ck.mu.Lock()
	// The trigger base is the newest snapshot OR the last (possibly
	// failed) attempt: a persistently failing snapshot store retries only
	// once per Every records instead of stalling every command behind the
	// capture barrier.
	base := ck.lastSeq
	if ck.tried > base {
		base = ck.tried
	}
	if ck.inflight || seq-base < ck.every {
		ck.mu.Unlock()
		return
	}
	ck.inflight = true
	ck.tried = seq
	ck.mu.Unlock()
	go func() {
		_, _, err := s.Checkpoint()
		ck.mu.Lock()
		ck.inflight = false
		ck.err = err
		ck.idle.Broadcast()
		ck.mu.Unlock()
	}()
}

// WaitCheckpoints blocks until no background snapshot is in flight and
// returns the most recent background snapshot error, if any.
func (s *System) WaitCheckpoints() error {
	if s.ckpt == nil {
		return nil
	}
	return s.ckpt.wait()
}

// JournalSeq returns the number of journaled commands: the shard head
// sequence numbers summed — with one shard the sequence number of the last
// journaled command, otherwise a total growth measure, not a single
// position. 0 for a system created with New.
func (s *System) JournalSeq() int {
	total := 0
	for _, q := range s.journalSeqs() {
		total += q
	}
	return total
}
