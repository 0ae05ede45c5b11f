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
//     atomic add per counter, two per histogram observation (the
//     bucket and the sum), one per-slot mutex only when a sampled span
//     publishes.
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
// Prometheus families are prefixed adept2_, counters (and only
// counters) end in _total, time is stored in nanoseconds and exposed in
// seconds (a name says _seconds exactly when its row scales by 1e-9),
// sizes are unit-suffixed (e.g. _records, _commands), and instantaneous
// values are plain gauges. Label spaces
// are fixed at Set construction: op (a command's name, one per row of
// the façade's command table), code (error taxonomy, one per row of its
// code table; "ok" for success), shard, action, endpoint (RPC).
//
// # Metric catalogue
//
// The catalogue is the families table in prom.go: one row per family
// with its name, TYPE, HELP, label keys, scale and the function that
// emits its samples from a Snapshot. WritePrometheus writes every row,
// WriteText the counters and gauges not measured in seconds, and
// CheckExposition holds a scrape to the table (adeptctl stats -fetch and
// the tests call it). `adeptctl stats -format prom` on any journal prints
// every row's HELP and TYPE, samples or none: that output is the
// catalogue an operator reads. Adding a family takes a Set field, a
// Snapshot field with its copy in Set.Snapshot, and one row.
//
// The same data is exposed as JSON (Snapshot's struct tags) at
// /metrics.json (both are ops routes of internal/rpc's one listener)
// and through System.Metrics(); the trace ring rides the snapshot as
// Traces.
package obs
