package adept2

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"strconv"
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

// opIndex enumerates the command registry for per-op metric arrays.
// Order matches the registry's init order; Resume is appended because it
// shares the "suspend" journal op but is its own command (and its own
// metric label).
const (
	opUser = iota
	opDeploy
	opEvolve
	opCreate
	opStart
	opFail
	opTimeout
	opRetry
	opComplete
	opAdHoc
	opSuspend
	opUndo
	opResume
	numOps
)

// opNames labels the op indexes (the Prometheus op label values).
var opNames = [numOps]string{
	"user", "deploy", "evolve", "create", "start", "fail", "timeout",
	"retry", "complete", "adhoc", "suspend", "undo", "resume",
}

// codeNames fixes the outcome-code label space: index 0 is success, the
// rest are the Code taxonomy.
var codeNames = []string{
	"ok",
	string(CodeInternal), string(CodeInvalid), string(CodeNotFound),
	string(CodeConflict), string(CodeDenied), string(CodeSuspended),
	string(CodeCompleted), string(CodeNotCompliant), string(CodeVersionSkew),
	string(CodeWedged), string(CodeUnrecoverable), string(CodeCanceled),
	string(CodeFailed), string(CodeTimeout),
}

var codeIndexes = func() map[Code]int {
	m := make(map[Code]int, len(codeNames))
	for i := 1; i < len(codeNames); i++ {
		m[Code(codeNames[i])] = i
	}
	return m
}()

// codeOf extracts the taxonomy code of a submit failure.
func codeOf(err error) Code {
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return CodeInternal
}

// codeIndexOf maps a submit failure to its outcome-matrix column.
func codeIndexOf(err error) int {
	if i, ok := codeIndexes[codeOf(err)]; ok {
		return i
	}
	return 1 // internal
}

// WithMetricsDisabled switches the telemetry plane off (obs.Disabled):
// no counters, no histograms, no trace ring, no clock reads — the
// submit path pays one nil check. The operational surfaces
// (System.Metrics, the metrics server) still serve engine and health
// gauges, just no accumulated families.
func WithMetricsDisabled() Option {
	return func(c *config) { c.metricsOff = true }
}

// WithTraceSampling tunes the command-lifecycle trace ring: slots is
// its capacity, every traces one of every N submissions (1 = all).
// Defaults: 256 slots, 1/64.
func WithTraceSampling(slots, every int) Option {
	return func(c *config) { c.obsOpts = obs.Options{RingSlots: slots, SampleEvery: every} }
}

// WithMetricsServer serves the metrics plane over HTTP at addr
// (host:port; ":0" picks a free port — see MetricsAddr): /metrics is
// Prometheus text format, /metrics.json the typed snapshot as JSON,
// /healthz the health summary (503 while wedged). The server stops on
// Close. Only takes effect with Open; New has no error path to report a
// failed listen through.
func WithMetricsServer(addr string) Option {
	return func(c *config) { c.metricsAddr = addr }
}

// WithSweepInterval runs System.SweepDeadlines from an in-process timer
// goroutine every d, so serving deployments get deadline expiry, retry
// backoff lifting, and policy re-runs without wiring their own ticker.
// The sweep time comes from the system clock (WithClock), the sweep-lag
// gauge tracks each tick's due-to-done gap, and Close shuts the timer
// down cleanly. Sweep errors are absorbed (the next Health/Metrics poll
// surfaces wedges); d <= 0 disables the timer.
func WithSweepInterval(d time.Duration) Option {
	return func(c *config) { c.sweepEvery = d }
}

// newMetricsSet builds the system's metric Set (nil when disabled).
func newMetricsSet(c *config, shards int) *obs.Set {
	if c.metricsOff {
		return obs.Disabled
	}
	return obs.New(opNames[:], codeNames, shards, c.obsOpts)
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
		snap.Exception.Failures = s.met.OpOK(opFail)
		snap.Exception.Timeouts = s.met.OpOK(opTimeout)
		snap.Exception.Retries = s.met.OpOK(opRetry)
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

// MetricsAddr returns the metrics server's bound address ("" without
// WithMetricsServer) — the way to find the port after ":0".
func (s *System) MetricsAddr() string {
	if s.obsLis == nil {
		return ""
	}
	return s.obsLis.Addr().String()
}

// startObs brings up the per-system observability machinery that runs
// goroutines: the sweep timer and the metrics HTTP server. Called at
// the end of Open (after recovery) and torn down first in Close.
func (s *System) startObs(c *config) error {
	if c.sweepEvery > 0 {
		s.startSweeper(c.sweepEvery)
	}
	if c.metricsAddr != "" {
		if err := s.startMetricsServer(c.metricsAddr); err != nil {
			return err
		}
	}
	return nil
}

// stopObs shuts the sweep timer and metrics server down. It runs before
// the durability teardown in Close so no sweep submits into a closing
// committer and no scrape observes a half-closed system.
func (s *System) stopObs() {
	if s.sweepStop != nil {
		close(s.sweepStop)
		<-s.sweepDone
		s.sweepStop = nil
	}
	if s.obsSrv != nil {
		s.obsSrv.Close()
		s.obsSrv = nil
		s.obsLis = nil
	}
}

func (s *System) startSweeper(every time.Duration) {
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

func (s *System) startMetricsServer(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return wrapErr("metrics", "", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.WritePrometheus(w, s.Metrics())
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Metrics())
	})
	mux.HandleFunc("/mine.json", func(w http.ResponseWriter, r *http.Request) {
		opts := MineOptions{}
		if v := r.URL.Query().Get("variants"); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				opts.MaxVariants = n
			}
		}
		rep, err := s.Mine(r.Context(), opts)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, r *http.Request) {
		var after uint64
		if v := r.URL.Query().Get("after"); v != "" {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				http.Error(w, "bad after cursor: "+err.Error(), http.StatusBadRequest)
				return
			}
			after = n
		}
		var ring *obs.TraceRing
		if s.met != nil {
			ring = s.met.Ring
		}
		spans, next := ring.Export(after)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(obs.TraceExport{Next: next, Spans: spans})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		status := map[string]any{"healthy": true}
		if err := s.healthErr(); err != nil {
			status["healthy"] = false
			status["error"] = err.Error()
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(status)
	})
	s.obsLis = lis
	s.obsSrv = &http.Server{Handler: mux}
	go func() { _ = s.obsSrv.Serve(lis) }()
	return nil
}
