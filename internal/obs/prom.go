package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// The Prometheus TYPEs of a family.
const (
	counter   = "counter"
	gauge     = "gauge"
	histogram = "histogram"
)

// family declares one Prometheus family: its name, TYPE and HELP, the
// keys of its labels, the scale from stored units to exposed ones (1e-9
// for nanoseconds exposed as seconds, otherwise 1), and emit, which
// writes the family's samples from a Snapshot by label values alone.
type family struct {
	name   string
	kind   string
	help   string
	labels []string
	scale  float64
	emit   func(e *emitter, s *Snapshot)
}

// families is the metric catalogue: the one declaration of every family,
// in exposition order. WritePrometheus, WriteText and CheckExposition
// walk it, and `adeptctl stats -format prom` prints every row's HELP and
// TYPE on any journal.
var families = []family{
	{"adept2_submit_total", counter, "Commands submitted, by op and outcome code (ok = applied).", []string{"op", "code"}, 1, func(e *emitter, s *Snapshot) {
		for _, op := range sortedKeys(s.Ops) {
			e.val(s.Ops[op].OK, op, "ok")
			for _, code := range sortedKeys(s.Ops[op].Errors) {
				e.val(s.Ops[op].Errors[code], op, code)
			}
		}
	}},
	{"adept2_submit_latency_seconds", histogram, "Synchronous submit latency (apply + stage), successful singular submits.", []string{"op"}, 1e-9, func(e *emitter, s *Snapshot) {
		for _, op := range sortedKeys(s.Ops) {
			e.hist(s.Ops[op].Latency, op)
		}
	}},
	{"adept2_batch_commands", histogram, "Data commands per SubmitBatch run.", nil, 1, func(e *emitter, s *Snapshot) { e.hist(s.Batch.Size) }},
	{"adept2_batch_append_seconds", histogram, "Durability wait per SubmitBatch run.", nil, 1e-9, func(e *emitter, s *Snapshot) { e.hist(s.Batch.Nanos) }},

	{"adept2_shard_appends_total", counter, "Live-path journal records staged, per shard.", []string{"shard"}, 1, perShard(func(sh ShardSnapshot) int64 { return sh.Appends })},
	{"adept2_shard_seq", gauge, "Shard journal head sequence number.", []string{"shard"}, 1, perShard(func(sh ShardSnapshot) int64 { return int64(sh.Seq) })},
	{"adept2_shard_append_depth", gauge, "Staged-but-unflushed records per shard (group-commit backlog).", []string{"shard"}, 1, perShard(func(sh ShardSnapshot) int64 { return int64(sh.Depth) })},
	{"adept2_shard_wedged", gauge, "1 while the shard's committer is wedged.", []string{"shard"}, 1, perShard(func(sh ShardSnapshot) int64 { return b2i(sh.Wedged) })},

	{"adept2_committer_fsync_seconds", histogram, "Group-commit flush attempt duration, all shards.", nil, 1e-9, func(e *emitter, s *Snapshot) { e.hist(s.Committer.Fsync) }},
	{"adept2_committer_batch_records", histogram, "Records covered per successful flush (batch occupancy).", nil, 1, func(e *emitter, s *Snapshot) { e.hist(s.Committer.BatchRecords) }},
	{"adept2_committer_wedges_total", counter, "Committers entering the wedged state.", nil, 1, func(e *emitter, s *Snapshot) { e.val(s.Committer.Wedges) }},
	{"adept2_committer_heals_total", counter, "Successful heals of wedged committers.", nil, 1, func(e *emitter, s *Snapshot) { e.val(s.Committer.Heals) }},

	{"adept2_checkpoint_total", counter, "Checkpoint attempts.", nil, 1, func(e *emitter, s *Snapshot) { e.val(s.Checkpoint.Count) }},
	{"adept2_checkpoint_failures_total", counter, "Failed checkpoint attempts.", nil, 1, func(e *emitter, s *Snapshot) { e.val(s.Checkpoint.Failures) }},
	{"adept2_checkpoint_seconds", histogram, "Checkpoint duration (capture + write + commit).", nil, 1e-9, func(e *emitter, s *Snapshot) { e.hist(s.Checkpoint.Nanos) }},
	{"adept2_snapshot_bytes_written_total", counter, "Snapshot bytes written, all stores.", nil, 1, func(e *emitter, s *Snapshot) { e.val(s.Checkpoint.BytesWritten) }},
	{"adept2_snapshot_bytes_read_total", counter, "Snapshot bytes read during recovery, all stores.", nil, 1, func(e *emitter, s *Snapshot) { e.val(s.Checkpoint.BytesRead) }},

	{"adept2_recovery_seconds_total", counter, "Time spent in Open-time recovery.", nil, 1e-9, func(e *emitter, s *Snapshot) { e.val(s.Recovery.Nanos) }},
	{"adept2_recovery_replayed_total", counter, "Journal records replayed during recovery.", nil, 1, func(e *emitter, s *Snapshot) { e.val(s.Recovery.Replayed) }},
	{"adept2_recovery_fallbacks_total", counter, "Snapshots/generations rejected during recovery.", nil, 1, func(e *emitter, s *Snapshot) { e.val(s.Recovery.Fallbacks) }},
	{"adept2_recovery_full_replays_total", counter, "Recoveries that fell back to a full journal replay.", nil, 1, func(e *emitter, s *Snapshot) { e.val(s.Recovery.FullReplays) }},

	{"adept2_exception_failures_total", counter, "Activity failures journaled.", nil, 1, func(e *emitter, s *Snapshot) { e.val(s.Exception.Failures) }},
	{"adept2_exception_timeouts_total", counter, "Deadline expiries journaled.", nil, 1, func(e *emitter, s *Snapshot) { e.val(s.Exception.Timeouts) }},
	{"adept2_exception_retries_total", counter, "Retry re-offers journaled.", nil, 1, func(e *emitter, s *Snapshot) { e.val(s.Exception.Retries) }},
	{"adept2_exception_policy_actions_total", counter, "Exception-policy decisions, by action.", []string{"action"}, 1, func(e *emitter, s *Snapshot) {
		for _, a := range sortedKeys(s.Exception.Actions) {
			e.val(s.Exception.Actions[a], a)
		}
	}},
	{"adept2_exception_compensated_total", counter, "Skips and suspends applied by fail and timeout commands.", nil, 1, func(e *emitter, s *Snapshot) { e.val(s.Exception.Compensated) }},

	{"adept2_sweep_total", counter, "Deadline sweeps run.", nil, 1, func(e *emitter, s *Snapshot) { e.val(s.Exception.Sweeps) }},
	{"adept2_sweep_errors_total", counter, "Non-moot submit errors collected by sweeps.", nil, 1, func(e *emitter, s *Snapshot) { e.val(s.Exception.SweepErrors) }},
	{"adept2_sweep_seconds", histogram, "Deadline sweep duration.", nil, 1e-9, func(e *emitter, s *Snapshot) { e.hist(s.Exception.SweepNanos) }},
	{"adept2_sweep_lag_seconds", gauge, "Latest timer sweep's due-to-done lag.", nil, 1e-9, func(e *emitter, s *Snapshot) { e.val(s.Exception.SweepLagNanos) }},

	{"adept2_rpc_requests_total", counter, "RPC requests answered, by endpoint and outcome.", []string{"endpoint", "code"}, 1, func(e *emitter, s *Snapshot) {
		for _, ep := range sortedKeys(s.RPC.Endpoints) {
			r := s.RPC.Endpoints[ep]
			e.val(r.Requests-r.Failures, ep, "ok")
			if r.Failures > 0 {
				e.val(r.Failures, ep, "error")
			}
		}
	}},
	{"adept2_rpc_request_seconds", histogram, "RPC handler duration, by endpoint.", []string{"endpoint"}, 1e-9, func(e *emitter, s *Snapshot) {
		for _, ep := range sortedKeys(s.RPC.Endpoints) {
			e.hist(s.RPC.Endpoints[ep].Latency, ep)
		}
	}},
	{"adept2_rpc_open_streams", gauge, "Connected watermark stream subscribers.", nil, 1, func(e *emitter, s *Snapshot) { e.val(s.RPC.OpenStreams) }},
	{"adept2_rpc_stream_events_total", counter, "Lines pushed to stream subscribers (receipt-resolution fan-out).", nil, 1, func(e *emitter, s *Snapshot) { e.val(s.RPC.StreamEvents) }},
	{"adept2_rpc_decode_errors_total", counter, "Wire envelopes rejected before dispatch.", nil, 1, func(e *emitter, s *Snapshot) { e.val(s.RPC.DecodeErrors) }},

	{"adept2_instances", gauge, "Instances resident in the engine.", nil, 1, func(e *emitter, s *Snapshot) { e.val(int64(s.Engine.Instances)) }},
	{"adept2_worklist_depth", gauge, "Offered work items across all users.", nil, 1, func(e *emitter, s *Snapshot) { e.val(int64(s.Engine.WorklistDepth)) }},
	{"adept2_open_exceptions", gauge, "Open exceptions: failed activities withheld until a retry, and escalated activities still running past their deadline.", nil, 1, func(e *emitter, s *Snapshot) { e.val(int64(s.Engine.OpenExceptions)) }},

	{"adept2_wedged", gauge, "1 while the write path is wedged (read-only degraded serving).", nil, 1, func(e *emitter, s *Snapshot) { e.val(b2i(s.Health.Wedged)) }},
	{"adept2_checkpoint_failing", gauge, "1 while the background checkpointer's last attempt failed.", nil, 1, func(e *emitter, s *Snapshot) { e.val(b2i(s.Health.CheckpointErr != "")) }},
	{"adept2_cleanup_errors_total", counter, "Failed removals of stale snapshot/temp files.", nil, 1, func(e *emitter, s *Snapshot) { e.val(s.Health.CleanupErrs) }},
	{"adept2_flush_retries_total", counter, "Flush attempts beyond each batch's first, all shards' committers.", nil, 1, func(e *emitter, s *Snapshot) { e.val(s.Health.FlushRetries) }},
}

// perShard emits one sample per shard, labelled by its index.
func perShard(v func(ShardSnapshot) int64) func(*emitter, *Snapshot) {
	return func(e *emitter, s *Snapshot) {
		for _, sh := range s.Shards {
			e.val(v(sh), strconv.Itoa(sh.Shard))
		}
	}
}

// WritePrometheus renders a Snapshot in the Prometheus text exposition
// format (version 0.0.4): every family of the catalogue gets its # HELP
// and # TYPE headers, samples or none, then its samples. The renderer
// works from a Snapshot, not the live Set, so /metrics and /metrics.json
// always describe the same instant.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	e := &emitter{w: w}
	for i := range families {
		e.f = &families[i]
		e.printf("# HELP %s %s\n# TYPE %s %s\n", e.f.name, e.f.help, e.f.name, e.f.kind)
		e.f.emit(e, s)
	}
	return e.err
}

// WriteText renders the counters and gauges of a Snapshot, one sample
// per line in the exposition's sample syntax, without headers. It skips
// histograms and every family measured in seconds, so a run on a logical
// clock renders the same text every time.
func WriteText(w io.Writer, s *Snapshot) error {
	e := &emitter{w: w}
	for i := range families {
		if e.f = &families[i]; inText(e.f) {
			e.f.emit(e, s)
		}
	}
	return e.err
}

// inText reports whether WriteText renders a family.
func inText(f *family) bool { return f.kind != histogram && f.scale == 1 }

// emitter writes the samples of one family at a time, f.
type emitter struct {
	w   io.Writer
	f   *family
	err error
}

func (e *emitter) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}

// val writes one sample; values pairs with the family's label keys.
func (e *emitter) val(v int64, values ...string) {
	e.printf("%s%s %s\n", e.f.name, e.labels(values, ""), fmtFloat(float64(v)*e.f.scale))
}

// hist writes a histogram's cumulative le buckets, its +Inf bucket, sum
// and count; bounds and sum are scaled, counts are not.
func (e *emitter) hist(h HistogramSnapshot, values ...string) {
	name, cum := e.f.name, int64(0)
	for i, n := range h.Buckets {
		cum += n
		le := "+Inf"
		if h.Bounds[i] >= 0 {
			le = fmtFloat(float64(h.Bounds[i]) * e.f.scale)
		}
		e.printf("%s_bucket%s %d\n", name, e.labels(values, le), cum)
	}
	if len(h.Bounds) == 0 || h.Bounds[len(h.Bounds)-1] >= 0 {
		// The snapshot trims trailing empty buckets, so a finite bound
		// usually ends the list; the format requires a +Inf bucket equal
		// to _count on every histogram.
		e.printf("%s_bucket%s %d\n", name, e.labels(values, "+Inf"), cum)
	}
	labels := e.labels(values, "")
	e.printf("%s_sum%s %s\n", name, labels, fmtFloat(float64(h.Sum)*e.f.scale))
	e.printf("%s_count%s %d\n", name, labels, h.Count)
}

// labels renders the label set of one sample: the family's keys paired
// with values, then le when it is not empty.
func (e *emitter) labels(values []string, le string) string {
	if len(values) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range values {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(e.f.labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	if le != "" {
		if len(values) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// sortedKeys returns a map's keys in order, so every rendering of one
// Snapshot is the same bytes.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
