package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders a Snapshot in the Prometheus text exposition
// format (version 0.0.4): every family gets # HELP/# TYPE headers,
// histograms render cumulative le buckets with _sum in seconds for
// nanosecond-unit families, and label values are escaped. The renderer
// works from a Snapshot, not the live Set, so /metrics and
// /metrics.json always describe the same instant.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	pw := &promWriter{w: w}

	pw.header("adept2_submit_total", "counter", "Commands submitted, by op and outcome code (ok = applied).")
	for _, op := range sortedOps(s.Ops) {
		o := s.Ops[op]
		pw.val("adept2_submit_total", lbl("op", op, "code", "ok"), float64(o.OK))
		for _, code := range sortedKeys(o.Errors) {
			pw.val("adept2_submit_total", lbl("op", op, "code", code), float64(o.Errors[code]))
		}
	}
	pw.header("adept2_submit_latency_seconds", "histogram", "Synchronous submit latency (apply + stage), successful singular submits.")
	for _, op := range sortedOps(s.Ops) {
		pw.histogram("adept2_submit_latency_seconds", lbl("op", op), s.Ops[op].Latency, 1e-9)
	}

	pw.header("adept2_batch_commands", "histogram", "Data commands per SubmitBatch run.")
	pw.histogram("adept2_batch_commands", "", s.Batch.Size, 1)
	pw.header("adept2_batch_append_seconds", "histogram", "Durability wait per SubmitBatch run.")
	pw.histogram("adept2_batch_append_seconds", "", s.Batch.Nanos, 1e-9)

	pw.header("adept2_shard_appends_total", "counter", "Live-path journal records staged, per shard.")
	for _, sh := range s.Shards {
		pw.val("adept2_shard_appends_total", lbl("shard", strconv.Itoa(sh.Shard)), float64(sh.Appends))
	}
	pw.header("adept2_shard_seq", "gauge", "Shard journal head sequence number.")
	for _, sh := range s.Shards {
		pw.val("adept2_shard_seq", lbl("shard", strconv.Itoa(sh.Shard)), float64(sh.Seq))
	}
	pw.header("adept2_shard_append_depth", "gauge", "Staged-but-unflushed records per shard (group-commit backlog).")
	for _, sh := range s.Shards {
		pw.val("adept2_shard_append_depth", lbl("shard", strconv.Itoa(sh.Shard)), float64(sh.Depth))
	}
	pw.header("adept2_shard_wedged", "gauge", "1 while the shard's committer is wedged.")
	for _, sh := range s.Shards {
		pw.val("adept2_shard_wedged", lbl("shard", strconv.Itoa(sh.Shard)), b2f(sh.Wedged))
	}

	pw.header("adept2_committer_fsync_seconds", "histogram", "Group-commit flush attempt duration, all shards.")
	pw.histogram("adept2_committer_fsync_seconds", "", s.Committer.Fsync, 1e-9)
	pw.header("adept2_committer_batch_records", "histogram", "Records covered per successful flush (batch occupancy).")
	pw.histogram("adept2_committer_batch_records", "", s.Committer.BatchRecords, 1)
	pw.header("adept2_committer_flush_retries_total", "counter", "Flush attempts beyond each batch's first.")
	pw.val("adept2_committer_flush_retries_total", "", float64(s.Committer.FlushRetries))
	pw.header("adept2_committer_wedges_total", "counter", "Committers entering the wedged state.")
	pw.val("adept2_committer_wedges_total", "", float64(s.Committer.Wedges))
	pw.header("adept2_committer_heals_total", "counter", "Successful heals of wedged committers.")
	pw.val("adept2_committer_heals_total", "", float64(s.Committer.Heals))

	pw.header("adept2_checkpoint_total", "counter", "Checkpoint attempts.")
	pw.val("adept2_checkpoint_total", "", float64(s.Checkpoint.Count))
	pw.header("adept2_checkpoint_failures_total", "counter", "Failed checkpoint attempts.")
	pw.val("adept2_checkpoint_failures_total", "", float64(s.Checkpoint.Failures))
	pw.header("adept2_checkpoint_seconds", "histogram", "Checkpoint duration (capture + write + commit).")
	pw.histogram("adept2_checkpoint_seconds", "", s.Checkpoint.Nanos, 1e-9)
	pw.header("adept2_snapshot_bytes_written_total", "counter", "Snapshot bytes written, all stores.")
	pw.val("adept2_snapshot_bytes_written_total", "", float64(s.Checkpoint.BytesWritten))
	pw.header("adept2_snapshot_bytes_read_total", "counter", "Snapshot bytes read during recovery, all stores.")
	pw.val("adept2_snapshot_bytes_read_total", "", float64(s.Checkpoint.BytesRead))

	pw.header("adept2_recovery_seconds_total", "counter", "Time spent in Open-time recovery.")
	pw.val("adept2_recovery_seconds_total", "", float64(s.Recovery.Nanos)*1e-9)
	pw.header("adept2_recovery_replayed_total", "counter", "Journal records replayed during recovery.")
	pw.val("adept2_recovery_replayed_total", "", float64(s.Recovery.Replayed))
	pw.header("adept2_recovery_fallbacks_total", "counter", "Snapshots/generations rejected during recovery.")
	pw.val("adept2_recovery_fallbacks_total", "", float64(s.Recovery.Fallbacks))
	pw.header("adept2_recovery_full_replays_total", "counter", "Recoveries that fell back to a full journal replay.")
	pw.val("adept2_recovery_full_replays_total", "", float64(s.Recovery.FullReplays))

	pw.header("adept2_exception_failures_total", "counter", "Activity failures journaled.")
	pw.val("adept2_exception_failures_total", "", float64(s.Exception.Failures))
	pw.header("adept2_exception_timeouts_total", "counter", "Deadline expiries journaled.")
	pw.val("adept2_exception_timeouts_total", "", float64(s.Exception.Timeouts))
	pw.header("adept2_exception_retries_total", "counter", "Retry re-offers journaled.")
	pw.val("adept2_exception_retries_total", "", float64(s.Exception.Retries))
	pw.header("adept2_exception_escalations_total", "counter", "Work-item escalations (deadline expiries fired).")
	pw.val("adept2_exception_escalations_total", "", float64(s.Exception.Escalations))
	pw.header("adept2_exception_policy_actions_total", "counter", "Exception-policy decisions, by action.")
	for _, a := range sortedKeys(s.Exception.Actions) {
		pw.val("adept2_exception_policy_actions_total", lbl("action", a), float64(s.Exception.Actions[a]))
	}
	pw.header("adept2_exception_compensated_total", "counter", "Compensating commands submitted by sweeps.")
	pw.val("adept2_exception_compensated_total", "", float64(s.Exception.Compensated))

	pw.header("adept2_sweep_total", "counter", "Deadline sweeps run.")
	pw.val("adept2_sweep_total", "", float64(s.Exception.Sweeps))
	pw.header("adept2_sweep_errors_total", "counter", "Non-moot submit errors collected by sweeps.")
	pw.val("adept2_sweep_errors_total", "", float64(s.Exception.SweepErrors))
	pw.header("adept2_sweep_seconds", "histogram", "Deadline sweep duration.")
	pw.histogram("adept2_sweep_seconds", "", s.Exception.SweepNanos, 1e-9)
	pw.header("adept2_sweep_lag_seconds", "gauge", "Latest timer sweep's due-to-done lag.")
	pw.val("adept2_sweep_lag_seconds", "", float64(s.Exception.SweepLagNanos)*1e-9)

	pw.header("adept2_rpc_requests_total", "counter", "RPC requests answered, by endpoint and outcome.")
	for _, ep := range sortedRPC(s.RPC.Endpoints) {
		e := s.RPC.Endpoints[ep]
		pw.val("adept2_rpc_requests_total", lbl("endpoint", ep, "code", "ok"), float64(e.Requests-e.Failures))
		if e.Failures > 0 {
			pw.val("adept2_rpc_requests_total", lbl("endpoint", ep, "code", "error"), float64(e.Failures))
		}
	}
	pw.header("adept2_rpc_request_seconds", "histogram", "RPC handler duration, by endpoint.")
	for _, ep := range sortedRPC(s.RPC.Endpoints) {
		pw.histogram("adept2_rpc_request_seconds", lbl("endpoint", ep), s.RPC.Endpoints[ep].Latency, 1e-9)
	}
	pw.header("adept2_rpc_open_streams", "gauge", "Connected NDJSON stream subscribers (watermarks + control-log tails).")
	pw.val("adept2_rpc_open_streams", "", float64(s.RPC.OpenStreams))
	pw.header("adept2_rpc_stream_events_total", "counter", "Lines pushed to stream subscribers (receipt-resolution fan-out).")
	pw.val("adept2_rpc_stream_events_total", "", float64(s.RPC.StreamEvents))
	pw.header("adept2_rpc_decode_errors_total", "counter", "Wire envelopes rejected before dispatch.")
	pw.val("adept2_rpc_decode_errors_total", "", float64(s.RPC.DecodeErrors))

	pw.header("adept2_instances", "gauge", "Instances resident in the engine.")
	pw.val("adept2_instances", "", float64(s.Engine.Instances))
	pw.header("adept2_worklist_depth", "gauge", "Offered work items across all users.")
	pw.val("adept2_worklist_depth", "", float64(s.Engine.WorklistDepth))
	pw.header("adept2_open_exceptions", "gauge", "Detected-but-uncompensated exceptions.")
	pw.val("adept2_open_exceptions", "", float64(s.Engine.OpenExceptions))

	pw.header("adept2_wedged", "gauge", "1 while the write path is wedged (read-only degraded serving).")
	pw.val("adept2_wedged", "", b2f(s.Health.Wedged))
	pw.header("adept2_checkpoint_failing", "gauge", "1 while the background checkpointer's last attempt failed.")
	pw.val("adept2_checkpoint_failing", "", b2f(s.Health.CheckpointErr != ""))
	pw.header("adept2_cleanup_errors_total", "counter", "Failed removals of stale snapshot/temp files.")
	pw.val("adept2_cleanup_errors_total", "", float64(s.Health.CleanupErrs))
	pw.header("adept2_flush_retries_total", "counter", "Transient flush failures absorbed (HealthInfo view).")
	pw.val("adept2_flush_retries_total", "", float64(s.Health.FlushRetries))

	return pw.err
}

// WriteText renders the counters of a Snapshot as a short human-readable
// summary: the recovery, one line per shard and per op, then one line per
// subsystem. It prints no duration, so a run on a logical clock renders
// the same text every time. An offline open has no live submit counters,
// so its interesting rows are the recovered state, the shard heads and
// the health.
func WriteText(w io.Writer, s *Snapshot) error {
	tw := &promWriter{w: w}
	tw.printf("recovery: replayed=%d fallbacks=%d fullReplays=%d (read %d B of snapshots)\n",
		s.Recovery.Replayed, s.Recovery.Fallbacks, s.Recovery.FullReplays, s.Checkpoint.BytesRead)
	for _, sh := range s.Shards {
		tw.printf("shard %d: seq=%d depth=%d appends=%d wedged=%v\n",
			sh.Shard, sh.Seq, sh.Depth, sh.Appends, sh.Wedged)
	}
	for _, op := range sortedOps(s.Ops) {
		o := s.Ops[op]
		tw.printf("op %-9s ok=%d batched=%d errors=%v\n", op, o.OK, o.Batched, o.Errors)
	}
	tw.printf("engine: instances=%d worklist=%d openExceptions=%d\n",
		s.Engine.Instances, s.Engine.WorklistDepth, s.Engine.OpenExceptions)
	tw.printf("exception: failures=%d timeouts=%d retries=%d escalations=%d compensated=%d sweeps=%d\n",
		s.Exception.Failures, s.Exception.Timeouts, s.Exception.Retries,
		s.Exception.Escalations, s.Exception.Compensated, s.Exception.Sweeps)
	tw.printf("committer: fsyncs=%d retries=%d wedges=%d heals=%d\n",
		s.Committer.Fsync.Count, s.Committer.FlushRetries, s.Committer.Wedges, s.Committer.Heals)
	tw.printf("checkpoint: count=%d failures=%d bytesWritten=%d\n",
		s.Checkpoint.Count, s.Checkpoint.Failures, s.Checkpoint.BytesWritten)
	health := "ok"
	if s.Health.Wedged {
		health = fmt.Sprintf("WEDGED (shards %v)", s.Health.WedgedShards)
	}
	tw.printf("health: %s cleanupErrs=%d flushRetries=%d\n", health, s.Health.CleanupErrs, s.Health.FlushRetries)
	if len(s.Traces) > 0 {
		tw.printf("traces: %d sampled spans\n", len(s.Traces))
	}
	return tw.err
}

type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

func (p *promWriter) header(name, typ, help string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) val(name, labels string, v float64) {
	p.printf("%s%s %s\n", name, labels, fmtFloat(v))
}

// histogram renders cumulative le buckets; unit scales the stored
// observation units into the exposed ones (1e-9 for nanos → seconds).
func (p *promWriter) histogram(name, labels string, h HistogramSnapshot, unit float64) {
	cum := int64(0)
	sawInf := false
	for i, n := range h.Buckets {
		cum += n
		le := "+Inf"
		if h.Bounds[i] >= 0 {
			le = fmtFloat(float64(h.Bounds[i]) * unit)
		} else {
			sawInf = true
			cum = h.Count // a torn snapshot may drift; +Inf must equal count
		}
		p.printf("%s_bucket%s %d\n", name, mergeLabels(labels, "le", le), cum)
	}
	if !sawInf {
		// The snapshot trims trailing empty buckets, so a finite bound
		// usually ends the list; the format requires a +Inf bucket equal
		// to _count on every histogram.
		p.printf("%s_bucket%s %d\n", name, mergeLabels(labels, "le", "+Inf"), h.Count)
	}
	p.printf("%s_sum%s %s\n", name, labels, fmtFloat(float64(h.Sum)*unit))
	p.printf("%s_count%s %d\n", name, labels, h.Count)
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// lbl renders a label set from alternating key/value strings.
func lbl(kv ...string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabels appends one more label to an already-rendered set.
func mergeLabels(labels, k, v string) string {
	extra := k + `="` + escapeLabel(v) + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func sortedOps(m map[string]OpSnapshot) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedRPC(m map[string]RPCEndpointSnapshot) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
