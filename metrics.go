package adept2

import (
	"context"
	"errors"
	"time"

	"adept2/internal/obs"
)

// Observability: every System owns an internal/obs metric Set threaded
// through the submit paths, the durability pipeline, checkpoints,
// recovery, and the exception loop. Metrics are on by default (the hot
// path cost is a handful of atomic adds); WithMetricsDisabled selects
// obs.Disabled — the nil set — making the off path allocation-free.
// Replay and recovery never record live-path metrics: the Set is
// installed only after recovery completes, and replay bypasses Submit.

// codeOf extracts the taxonomy code of a submit failure.
func codeOf(err error) Code {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return CodeInternal
}

// codeIndexOf maps a submit failure to its outcome-matrix column: its
// code's row of codeTable, after "ok".
func codeIndexOf(err error) int { return 1 + codeOf(err).index() }

// WithMetricsDisabled switches the telemetry plane off (obs.Disabled):
// no counters, no histograms, no trace ring, no clock reads — the
// submit path pays one nil check. The operational surfaces
// (System.Metrics, the ops routes of internal/rpc) still serve engine
// and health gauges, just no accumulated families.
func WithMetricsDisabled() Option {
	return func(c *config) { c.metricsOff = true }
}

// WithTraceSampling tunes the command-lifecycle trace ring: slots is
// its capacity, every traces one of every N submissions (1 = all).
// Defaults: 256 slots, 1/64.
func WithTraceSampling(slots, every int) Option {
	return func(c *config) { c.obsOpts = obs.Options{RingSlots: slots, SampleEvery: every} }
}

// WithSweepInterval runs System.SweepDeadlines from an in-process timer
// goroutine every d, so serving deployments get deadline expiry and retry
// backoff lifting without wiring their own ticker.
// The sweep time comes from the system clock (WithClock), the sweep-lag
// gauge tracks each tick's due-to-done gap, and Close shuts the timer
// down cleanly. Sweep errors are absorbed (the next Health/Metrics poll
// surfaces wedges); d <= 0 disables the timer.
func WithSweepInterval(d time.Duration) Option {
	return func(c *config) { c.sweepEvery = d }
}

// newMetricsSet builds the system's metric Set (nil when disabled), its
// label spaces read from the tables: an op per cmdTable row, and the
// codes, success ("ok") first, then a code per codeTable row.
func newMetricsSet(c *config, shards int) *obs.Set {
	if c.metricsOff {
		return obs.Disabled
	}
	ops := make([]string, len(cmdTable))
	for i, r := range cmdTable {
		ops[i] = r.name
	}
	codes := []string{"ok"}
	for _, r := range codeTable {
		codes = append(codes, string(r.code))
	}
	return obs.New(ops, codes, shards, c.obsOpts)
}

// recordRecovery files the one-time recovery family, after the fact —
// recovery itself ran before the Set existed.
func recordRecovery(m *obs.Set, info *RecoveryInfo, dur time.Duration) {
	if m == nil || info == nil {
		return
	}
	m.Recovery.Count.Inc()
	m.Recovery.Nanos.Add(dur.Nanoseconds())
	m.Recovery.Replayed.Add(int64(info.Replayed))
	m.Recovery.Fallbacks.Add(int64(len(info.Fallbacks)))
	if info.FullReplay {
		m.Recovery.FullReplays.Inc()
	}
}

// Metrics returns the typed point-in-time snapshot of the telemetry
// plane: per-op outcome and latency families, per-shard journal state,
// committer/checkpoint/recovery/exception families, engine gauges, the
// HealthInfo fold-in, and the sampled trace spans. Safe to poll; with
// WithMetricsDisabled only the instantaneous gauges are populated.
func (s *System) Metrics() *obs.Snapshot {
	snap := s.met.Snapshot()
	if s.met != nil {
		snap.Exception.Failures = s.met.OpOK(failCmd.index)
		snap.Exception.Timeouts = s.met.OpOK(timeoutCmd.index)
		snap.Exception.Retries = s.met.OpOK(retryCmd.index)
	}

	// Shard live view: head sequence, group-commit backlog (head minus
	// durable watermark), wedge state.
	seqs, durable := s.journalSeqs(), s.DurableWatermarks()
	if len(snap.Shards) != len(seqs) {
		snap.Shards = make([]obs.ShardSnapshot, len(seqs))
		for k := range snap.Shards {
			snap.Shards[k].Shard = k
		}
	}
	for k := range snap.Shards {
		snap.Shards[k].Seq = seqs[k]
		snap.Shards[k].Depth = max(seqs[k]-durable[k], 0)
	}
	hi := s.HealthInfo()
	for _, k := range hi.WedgedShards {
		snap.Shards[k].Wedged = true
	}

	// Snapshot-store byte counters (accumulated passively, surfaced here).
	for _, st := range s.stores {
		snap.Checkpoint.BytesWritten += st.BytesWritten()
		snap.Checkpoint.BytesRead += st.BytesRead()
	}

	snap.Engine = obs.EngineSnapshot{
		Instances:      s.eng.NumInstances(),
		WorklistDepth:  s.eng.Worklist().Len(),
		OpenExceptions: len(s.eng.OpenExceptions()),
	}

	snap.Health = obs.HealthSnapshot{
		Wedged:       hi.Wedged != nil,
		WedgedShards: hi.WedgedShards,
		CleanupErrs:  hi.CleanupErrs,
		FlushRetries: hi.FlushRetries,
	}
	if hi.CheckpointErr != nil {
		snap.Health.CheckpointErr = hi.CheckpointErr.Error()
	}
	return snap
}

// ObsSet exposes the live metric registry for in-module wiring (the
// networked command plane records its request/stream families into the
// same Set System.Metrics snapshots). nil when metrics are disabled —
// every obs recording method is nil-safe, so callers pass it through
// unguarded. External consumers should use Metrics instead.
func (s *System) ObsSet() *obs.Set { return s.met }

// stopSweeper shuts the sweep timer down. It runs before the durability
// teardown in Close so no sweep submits into a closing committer.
func (s *System) stopSweeper() {
	if s.sweepStop != nil {
		close(s.sweepStop)
		<-s.sweepDone
		s.sweepStop = nil
	}
}

// startSweeper starts the WithSweepInterval timer (a no-op without one).
// Called at the end of construction, after recovery.
func (s *System) startSweeper(every time.Duration) {
	if every <= 0 {
		return
	}
	s.sweepStop = make(chan struct{})
	s.sweepDone = make(chan struct{})
	go func() {
		defer close(s.sweepDone)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.sweepStop:
				return
			case due := <-t.C:
				// Sweep at the system clock (deterministic soaks inject
				// one); the lag gauge uses the wall clock the ticker runs
				// on: schedule drift + sweep duration.
				_, _ = s.SweepDeadlines(context.Background(), time.Unix(0, s.now()))
				if m := s.met; m != nil {
					m.Exception.SweepLagNanos.Set(time.Since(due).Nanoseconds())
				}
			}
		}
	}()
}
