// Package obs is the engine's dependency-free telemetry core: atomic
// counters, gauges, and fixed-bucket histograms (cache-line padded, one
// branch when disabled), a sampled command-lifecycle trace ring, a typed
// Snapshot, and a Prometheus text renderer. The facade owns one Set per
// System and threads its families through every layer; internal/durable
// receives only the nil-safe CommitterMetrics slice of it.
//
// # Design rules
//
//   - Hot-path recording never allocates and never takes a lock: one
//     atomic add per counter, three per histogram observation, one
//     per-slot mutex only when a sampled span publishes.
//   - Disabled (the nil *Set) turns the plane off entirely: every
//     recording method is nil-receiver-safe and the facade skips its
//     clock reads behind the same nil check, so the off path is
//     allocation-free and costs one predictable branch.
//   - Replay and recovery NEVER record live-path metrics — the same
//     discipline as the live-only argsEncoder: the facade installs the
//     Set only after recovery completes, and replay bypasses Submit
//     entirely. The only recovery-visible family is RecoveryMetrics,
//     recorded once, after the fact.
//   - Timestamps in trace spans come from the system's injected clock
//     (the one that stamps journal records), so deterministic soaks
//     produce deterministic spans; durations (latency, fsync, sweep)
//     come from the runtime monotonic clock.
//
// # Naming conventions
//
// Prometheus families are prefixed adept2_, counters end in _total,
// histogram time is exposed in seconds (stored in nanoseconds;
// *_seconds histograms), sizes are unit-suffixed (e.g. _records,
// _commands), and instantaneous values are plain gauges. Label spaces
// are fixed at Set construction: op (command registry name), code
// (error taxonomy; "ok" for success), shard, action.
//
// # Metric catalogue
//
// Submit plane:
//
//	adept2_submit_total{op,code}         counter    commands by outcome
//	adept2_submit_latency_seconds{op}    histogram  synchronous apply+stage latency (singular ok submits)
//	adept2_batch_commands                histogram  data commands per SubmitBatch run
//	adept2_batch_append_seconds          histogram  durability wait per SubmitBatch run
//	adept2_shard_appends_total{shard}    counter    live-path records staged per shard
//	adept2_shard_seq{shard}              gauge      journal head sequence
//	adept2_shard_append_depth{shard}     gauge      staged-but-unflushed backlog
//	adept2_shard_wedged{shard}           gauge      1 while the shard committer is wedged
//
// Durability plane:
//
//	adept2_committer_fsync_seconds       histogram  flush attempt duration
//	adept2_committer_batch_records       histogram  records per successful flush
//	adept2_committer_flush_retries_total counter    retry attempts absorbed
//	adept2_committer_wedges_total        counter    wedge transitions
//	adept2_committer_heals_total         counter    successful heals
//	adept2_checkpoint_total              counter    checkpoint attempts
//	adept2_checkpoint_failures_total     counter    failed attempts
//	adept2_checkpoint_seconds            histogram  checkpoint duration
//	adept2_snapshot_bytes_written_total  counter    snapshot bytes written
//	adept2_snapshot_bytes_read_total     counter    snapshot bytes read (recovery)
//	adept2_recovery_seconds_total        counter    Open-time recovery duration
//	adept2_recovery_replayed_total       counter    records replayed
//	adept2_recovery_fallbacks_total      counter    rejected snapshots/generations
//	adept2_recovery_full_replays_total   counter    full-replay recoveries
//
// Exception plane:
//
//	adept2_exception_failures_total        counter  fail commands applied
//	adept2_exception_timeouts_total        counter  timeout commands applied
//	adept2_exception_retries_total         counter  retry commands applied
//	adept2_exception_escalations_total     counter  deadline expiries fired
//	adept2_exception_policy_actions_total{action} counter policy decisions
//	adept2_exception_compensated_total     counter  sweep compensations
//	adept2_sweep_total                     counter  sweeps run
//	adept2_sweep_errors_total              counter  non-moot sweep errors
//	adept2_sweep_seconds                   histogram sweep duration
//	adept2_sweep_lag_seconds               gauge    timer sweep due-to-done lag
//
// Engine and health gauges:
//
//	adept2_instances, adept2_worklist_depth, adept2_open_exceptions
//	adept2_wedged, adept2_checkpoint_failing,
//	adept2_cleanup_errors_total, adept2_flush_retries_total
//
// The same data is exposed as JSON (Snapshot's struct tags) at
// /metrics.json (both are ops routes of internal/rpc's one listener)
// and through System.Metrics(); the trace ring rides the snapshot as
// Traces.
package obs
