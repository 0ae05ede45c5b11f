package obs

// Set is one system's metric registry: every counter, gauge, histogram,
// and the trace ring, pre-allocated at construction so recording never
// allocates. The facade holds a *Set per System; Disabled (a nil *Set)
// turns the whole plane off — the hot paths guard on the nil pointer and
// skip both the recording and the clock reads, so the off path costs one
// predictable branch.
type Set struct {
	// Ops and Codes fix the label spaces: per-op arrays index by the
	// command's row in the façade's command table, the outcome matrix by
	// (op, code) with Codes[0] = "ok".
	Ops   []string
	Codes []string

	outcomes      []Counter    // (op, code) flat: op*len(Codes)+code
	batched       []Counter    // per op: subset of OK applied inside SubmitBatch runs
	SubmitLatency []*Histogram // per op, nanos; singular submits, success only
	BatchSize     *Histogram   // data commands per SubmitBatch run
	BatchNanos    *Histogram   // durability wait per SubmitBatch run (its records staged already)
	shardAppends  []Counter    // per shard: live-path journal records staged

	Committer  CommitterMetrics
	Checkpoint CheckpointMetrics
	Recovery   RecoveryMetrics
	Exception  ExceptionMetrics
	RPC        RPCMetrics

	Ring *TraceRing
}

// Disabled is the switched-off metrics plane: the nil *Set. Every
// recording method of the obs types is nil-safe, and the facade's hot
// paths skip their clock reads when the set is nil, so the disabled
// path is allocation-free and costs one branch.
var Disabled *Set

// Options tunes a Set (zero values take defaults).
type Options struct {
	// RingSlots is the trace-ring capacity (default 256).
	RingSlots int
	// SampleEvery traces one of every N submissions (default 64; 1
	// traces everything).
	SampleEvery int
}

// New builds a Set for the given op names, outcome codes (codes[0] must
// be "ok"), and shard count.
func New(ops, codes []string, shards int, o Options) *Set {
	if o.RingSlots == 0 {
		o.RingSlots = 256
	}
	if o.SampleEvery == 0 {
		o.SampleEvery = 64
	}
	if shards < 1 {
		shards = 1
	}
	s := &Set{
		Ops:          ops,
		Codes:        codes,
		outcomes:     make([]Counter, len(ops)*len(codes)),
		batched:      make([]Counter, len(ops)),
		shardAppends: make([]Counter, shards),
		BatchSize:    NewHistogram(14, 0),  // 1 .. 8k commands
		BatchNanos:   NewHistogram(28, 10), // ~1µs .. ~2¼min
		Ring:         NewTraceRing(o.RingSlots, o.SampleEvery),
	}
	s.SubmitLatency = make([]*Histogram, len(ops))
	for i := range s.SubmitLatency {
		s.SubmitLatency[i] = NewHistogram(28, 10)
	}
	s.Committer = CommitterMetrics{
		FsyncNanos:   NewHistogram(28, 10),
		BatchRecords: NewHistogram(18, 0), // 1 .. 128k records
	}
	s.Checkpoint.Nanos = NewHistogram(28, 10)
	s.Exception.SweepNanos = NewHistogram(28, 10)
	s.RPC.ok = make([]Counter, len(RPCEndpoints))
	s.RPC.failed = make([]Counter, len(RPCEndpoints))
	s.RPC.Latency = make([]*Histogram, len(RPCEndpoints))
	for i := range s.RPC.Latency {
		s.RPC.Latency[i] = NewHistogram(28, 10)
	}
	return s
}

// SubmitOK records a successful singular submission: the ok outcome and
// its synchronous latency (apply + stage; the durability wait is the
// receipt's, visible in the trace ring's applied→durable gap).
func (s *Set) SubmitOK(op int, nanos int64) {
	if s == nil {
		return
	}
	s.outcomes[op*len(s.Codes)].Inc()
	s.SubmitLatency[op].Observe(nanos)
}

// SubmitBatched records one command applied inside a SubmitBatch run
// (ok outcome; no per-command latency — the run's durability wait is
// BatchNanos).
func (s *Set) SubmitBatched(op int) {
	if s == nil {
		return
	}
	s.outcomes[op*len(s.Codes)].Inc()
	s.batched[op].Inc()
}

// SubmitErr records a failed submission under its taxonomy code index
// (see Codes; unknown codes should map to the "internal" slot by the
// caller).
func (s *Set) SubmitErr(op, code int) {
	if s == nil || code <= 0 || code >= len(s.Codes) {
		return
	}
	s.outcomes[op*len(s.Codes)+code].Inc()
}

// ShardAppend counts n live-path journal records staged on a shard.
func (s *Set) ShardAppend(shard int, n int64) {
	if s == nil || shard < 0 || shard >= len(s.shardAppends) {
		return
	}
	s.shardAppends[shard].Add(n)
}

// OpOK returns the ok count of one op (tests and invariants).
func (s *Set) OpOK(op int) int64 {
	if s == nil {
		return 0
	}
	return s.outcomes[op*len(s.Codes)].Load()
}

// ShardAppends returns the staged-record count of one shard.
func (s *Set) ShardAppends(shard int) int64 {
	if s == nil || shard < 0 || shard >= len(s.shardAppends) {
		return 0
	}
	return s.shardAppends[shard].Load()
}

// CommitterMetrics is the group-commit pipeline's family, shared by
// every shard committer of a system (per-shard split lives in the shard
// gauges — the flush path itself aggregates). All methods are nil-safe:
// a committer without metrics passes nil and pays one branch.
type CommitterMetrics struct {
	FsyncNanos   *Histogram // per flush attempt (including retries)
	BatchRecords *Histogram // records covered per successful flush
	Wedges       Counter    // committers entering the wedged state
	Heals        Counter    // successful Heal calls on wedged committers
}

// ObserveFsync records one flush attempt's duration.
func (m *CommitterMetrics) ObserveFsync(nanos int64) {
	if m != nil {
		m.FsyncNanos.Observe(nanos)
	}
}

// ObserveBatch records a successful flush covering n records.
func (m *CommitterMetrics) ObserveBatch(n int64) {
	if m != nil && n > 0 {
		m.BatchRecords.Observe(n)
	}
}

// WedgeInc counts one committer wedging.
func (m *CommitterMetrics) WedgeInc() {
	if m != nil {
		m.Wedges.Inc()
	}
}

// HealInc counts one successful heal.
func (m *CommitterMetrics) HealInc() {
	if m != nil {
		m.Heals.Inc()
	}
}

// CheckpointMetrics covers snapshot writes (both layouts).
type CheckpointMetrics struct {
	Count    Counter
	Failures Counter
	Nanos    *Histogram
}

// RecoveryMetrics is recorded once per Open, after recovery completes —
// recovery itself never touches live-path metrics.
type RecoveryMetrics struct {
	Count       Counter
	Nanos       Counter
	Replayed    Counter
	Fallbacks   Counter
	FullReplays Counter
}

// ExceptionMetrics covers the detect→react loop and the deadline sweep.
type ExceptionMetrics struct {
	// Actions counts policy decisions by CompensationAction ordinal
	// (none, retry, skip, suspend — see ActionNames).
	Actions [4]Counter
	// Compensated counts the skips and suspends that a fail or timeout
	// command applied (a degraded skip counts as the suspend it became).
	Compensated Counter
	Sweeps      Counter
	SweepErrors Counter
	SweepNanos  *Histogram
	// SweepLagNanos is the latest gap between a timer sweep's due time
	// and its completion (schedule drift + sweep duration).
	SweepLagNanos Gauge
}

// ActionNames labels ExceptionMetrics.Actions, aligned with the
// facade's CompensationAction ordinals.
var ActionNames = [4]string{"none", "retry", "skip", "suspend"}

// RPC endpoint indexes into RPCEndpoints — the networked command plane's
// fixed label space (one slot per wire endpoint family).
const (
	EpCommands   = iota // POST /v1/commands: one request per line, a command or a frame
	EpInstances         // GET /v1/instances, /v1/instances/{id}
	EpWorkItems         // GET /v1/workitems
	EpExceptions        // GET /v1/exceptions
	EpHealth            // GET /healthz
	EpWatermarks        // GET /v1/watermarks (snapshot + NDJSON stream)
	NumEndpoints
)

// RPCEndpoints labels the RPC metric arrays, aligned with the Ep*
// indexes.
var RPCEndpoints = [NumEndpoints]string{
	"commands", "instances", "workitems",
	"exceptions", "health", "watermarks",
}

// RPCMetrics is the networked command plane's family: per-endpoint
// request counts and latency, the open-stream gauge, the receipt/
// watermark stream depth, and wire decode failures. Recording goes
// through the nil-safe *Set methods below, so a System without metrics
// (or a Server handed obs.Disabled) pays one branch.
type RPCMetrics struct {
	// ok and failed count each endpoint's answers apart, so neither
	// count is a difference of two loads and neither can fall between
	// snapshots; a snapshot's Requests is their sum.
	ok      []Counter    // per endpoint: 2xx answers and result lines
	failed  []Counter    // per endpoint: non-2xx answers and error reply lines
	Latency []*Histogram // per endpoint, nanos: handler duration, or a command's read to reply

	// OpenStreams counts currently-connected watermark subscribers;
	// StreamEvents counts lines pushed to them (receipt-resolution
	// fan-out depth over time).
	OpenStreams  Gauge
	StreamEvents Counter
	// DecodeErrors counts wire envelopes rejected before dispatch
	// (unknown op, malformed args/JSON).
	DecodeErrors Counter
}

// RPCRequest records one answered RPC request — on the commands
// endpoint, one command: the endpoint slot, the duration, and whether
// the answer was a success (2xx, or a result line).
func (s *Set) RPCRequest(ep int, nanos int64, ok bool) {
	if s == nil || ep < 0 || ep >= len(s.RPC.ok) {
		return
	}
	if ok {
		s.RPC.ok[ep].Inc()
	} else {
		s.RPC.failed[ep].Inc()
	}
	s.RPC.Latency[ep].Observe(nanos)
}

// RPCStreamOpen/RPCStreamClose move the open-stream gauge.
func (s *Set) RPCStreamOpen() {
	if s != nil {
		s.RPC.OpenStreams.Add(1)
	}
}

func (s *Set) RPCStreamClose() {
	if s != nil {
		s.RPC.OpenStreams.Add(-1)
	}
}

// RPCStreamEvents counts n lines pushed to stream subscribers.
func (s *Set) RPCStreamEvents(n int64) {
	if s != nil && n > 0 {
		s.RPC.StreamEvents.Add(n)
	}
}

// RPCDecodeError counts one rejected wire envelope.
func (s *Set) RPCDecodeError() {
	if s != nil {
		s.RPC.DecodeErrors.Inc()
	}
}
