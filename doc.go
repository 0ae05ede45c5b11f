// Package adept2 is a Go implementation of ADEPT2, the adaptive process
// management system of Reichert, Rinderle, Kreher, and Dadam (ICDE 2005):
// a process engine whose instances can be changed ad hoc at runtime and
// migrated — correctness-preserving and on the fly — to evolved schema
// versions.
//
// The package is a facade over the subsystem packages in internal/: the
// block-structured process meta model and builder, the buildtime verifier
// (deadlock-causing cycles, data flow), the execution engine with
// worklists and an org model, the change framework with per-operation
// compliance conditions, the replay-based compliance criterion, the
// migration manager, the hybrid substitution-block storage for biased
// instances, and the checkpointed durability layer (a write-ahead log of
// N >= 1 shards).
//
// Quick start:
//
//	b := adept2.NewBuilder("order")
//	frag := b.Seq(b.Activity("a", "A", adept2.WithRole("clerk")),
//	              b.Activity("c", "C", adept2.WithRole("clerk")))
//	schema, _ := b.Build(frag)
//
//	ctx := context.Background()
//	sys := adept2.New()
//	_, _ = sys.Submit(ctx, &adept2.AddUser{User: &adept2.User{ID: "ann", Roles: []string{"clerk"}}})
//	_, _ = sys.Submit(ctx, &adept2.Deploy{Schema: schema})
//	res, _ := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "order"})
//	inst := res.(*adept2.Instance)
//	_, _ = sys.Submit(ctx, &adept2.CompleteActivity{Instance: inst.ID(), Node: "a", User: "ann"})
//
// # The unified command API
//
// Every state mutation is a typed Command — CreateInstance,
// StartActivity, CompleteActivity, AdHoc, Evolve, AddUser, Deploy,
// Suspend, Resume, Undo — submitted through one of three entry points:
//
//	res, err := sys.Submit(ctx, cmd)        // durable when it returns
//	rcpt, err := sys.SubmitAsync(ctx, cmd)  // durable when rcpt.Wait returns
//	ress, err := sys.SubmitBatch(ctx, cmds) // one barrier + one wait per run
//
// These are the only way to change a System's state (SweepDeadlines
// submits commands too): Org and every other accessor only read. A work item is reserved by starting it.
//
// A result is read by type assertion: a create returns the *Instance, an
// evolution the *MigrationReport, every other command nil. A command that
// was applied but not made durable fails with an Error whose Applied is
// set, and its result is the Error's Result.
//
// One table holds a row per command — its name, journal op, control/data
// classification and JSON codec — and one per error Code — its fault kind
// and HTTP status; everything that names a command or a code (the journal,
// replay, the wire codec, the metric labels, the HTTP mapping) reads the
// row. The live path and crash-recovery replay run the command's one
// engine application — executing a command and replaying its journal
// record run the identical code — so a command's live path, args codec
// and replay cannot drift. This
// uniformity is the paper's central architectural claim carried into the
// implementation: execution, ad-hoc change, and schema evolution are the
// same kind of logged, replayable operation.
//
// # Receipts
//
// SubmitAsync separates a command's two guarantees. Validation and the
// engine mutation are synchronous: when SubmitAsync returns nil, the
// command is applied and its result (Receipt.Result) is valid; a non-nil
// error means nothing happened. Durability is asynchronous: the journal
// record is staged in the group-commit pipeline, and Receipt.Wait
// resolves once an fsync covers it. Pipelining submitters share flushes
// (the in-flight fsync is the gather window), so a writer staging a
// window of commands and awaiting the receipts in bulk pays a fraction
// of the per-command fsync round-trips of blocking Submit. The window a
// caller keeps un-awaited is exactly its exposure: commands whose
// receipts have not resolved may be lost by a crash — applied in memory,
// never journaled — so externalize a result only after its receipt (or a
// later one from the same pipeline) resolves.
//
// # The durability layout
//
// Open attaches one pipeline, whatever the shard count: a write-ahead log
// of N >= 1 journals — shard 0 is the path handed to Open and doubles as
// the control log, data records route by instance hash — one snapshot
// series per shard, and the global manifest <path>.MANIFEST.json, whose
// generations (one consistent cut across all shards each) are the unit of
// recovery and of fallback. Recovery restores the newest valid generation
// and replays the journal suffixes past it in the epoch-merged order;
// RecoveryInfo reports it per shard. A directory without a manifest is
// one shard whose generations are its snapshot listing — what builds
// before sharding wrote, and what a fresh layout is until its first
// checkpoint writes the manifest — so there is nothing to convert;
// changing the shard count is the offline Reshard. WithCheckpointing
// tunes the pipeline and adds no mode: without it Open runs the zero-
// value CheckpointConfig. A system created with New journals nothing.
//
// Every shard journal is buffered and flushed by its own committer:
// appends arriving during one fsync form the next batch (a lone writer
// pays one write + one fsync per command), a failed flush is retried with
// backoff, and a shard that exhausts its retries wedges — submissions
// fail with ErrWedged before they mutate anything, reads and Health keep
// answering, and Heal restores writes.
//
// # Batches and the epoch invariant
//
// SubmitBatch takes the command barrier once per run of consecutive data
// commands and runs each through Submit's own path: a command applies and
// its record is staged at once, so records keep command order within each
// journal. The run then releases the barrier, wakes each touched shard
// once, and waits until every record it staged is durable — the wait
// holds no barrier, so no other command, control commands included,
// queues behind the run's fsync. A failing command ends its run: every
// command before it is staged, and durable before SubmitBatch returns the
// typed error, so live state and journal never diverge.
//
// Control commands (AddUser, Deploy, Evolve) keep their epoch semantics
// even inside a batch: each one is applied and made durable
// individually, holding the barrier (exclusively, with more than one
// shard), before the batch continues. The invariant — every data
// record's epoch stamp brackets it between the control record it
// observed and the next one — is what lets recovery replay data shards
// concurrently between control-record barriers. For the same
// reason control commands never pipeline: the epoch may only advance
// after the control record is durable, so their receipts resolve
// immediately.
//
// # Allocation budget
//
// A command allocates what the instance keeps: apart from the row marked
// transient below, the path Submit → command → engine → worklist → sharded
// WAL → committer → journal makes no object it drops again. Submit's
// Receipt stays on its stack (SubmitAsync's is the one heap object that
// path adds); a parked durability wait takes a recycled channel; the
// journal writes each line by hand into its own buffer; a record that
// differs from the submitted command (the assigned ID of a create, the
// stamped time of a start or complete, the shared wire shape of suspend
// and resume) is built in a pooled copy, never in the caller's command;
// completion options are values; the worklist reconciliation, the cascade
// and a step's reads or writes run on stack scratch; an offered item is
// one a withdrawal recycled, and aliases the role's immutable candidate
// slice. What is left, over the 13-command online-order lifecycle (one
// create, six start + complete pairs; 16 history events, six work items) —
// 12 allocations, 0.9 per command, where the same loop made 1.4 while a
// step gathered its values into a set on the heap, the binding list grew
// 1, 2, 4 and a written value was boxed again, 13.4 before this budget was
// drawn, 4.8 with an instance's small collections as Go maps, 4.4 with
// heap history events, 3.2 with stored item IDs, 2.5 while the journal
// encoded a command's args through encoding/json, 2.2 while a create
// allocated an instance's structures field by field (ten objects) and
// every offer a new Item (allocation profile of 2 000 lifecycles,
// MemProfileRate 1):
//
//	per lifecycle  allocation, and why it stays
//	     4  instance structures, per create: the Instance, which holds
//	        the history log and the data store by value (1); its running
//	        part — marking, execution index, loop counts, exception
//	        state (1); the marking's three dense arrays and the index's
//	        records, laid out in one pointer-free block (1); the ID
//	        string (1). The seal that finishes an instance allocates
//	        nothing
//	  ~0.5  the marking's evaluation worklist, grown on its first use
//	     4  history growth: the log's records doubling (32, 64, 128 B)
//	        and its binding list, made once with room for the view's
//	        data edges. An event and its values allocate nothing: the
//	        engine builds them on its stack and Append packs them
//	     0  work items: an offer takes the Item a withdrawal recycled
//	        (internal/worklist, "Lifetime"); only a population's
//	        growth allocates one
//	    ~1  worklist index: the instance's item list, made with room for
//	        two and kept while it has items; a user's list splitting a block
//	     2  the first write of a data element: its version list and its
//	        entry in the store's element list; the value is kept in the
//	        caller's box (data.Coerce)
//	  ~0.2  transient: one command in 64 builds a trace span, which its
//	        receipt stamps through the System's clock
//
// A flat command's args are appended by hand like the line around them:
// each wire form's AppendJSON runs on the field table its plain decoder
// reads (wireForm in command.go), and a completion's outputs sort their
// keys on the stack and write each value with jsonx.AppendValue, which
// leaves only a float or a nested value to encoding/json.
// internal/rpc.FuzzDecodeAgainstJSON holds the args to json.Marshal of the
// wire form and internal/persist.FuzzAppendRecord the line to json.Marshal
// of the Record; user, deploy, adhoc and evolve records are still encoded
// by encoding/json, once per control record or change.
//
// A create allocates seven objects: its four instance structures, the
// marking's worklist, the instance's item list and, when no withdrawal
// left one to recycle, the Item of its first offer. A start or a complete allocates only when the log grows under it or it
// writes a data element; suspend and resume allocate nothing.
// TestSubmitAllocationBudget pins each command kind on each submission
// path at its measured count, so an allocation that comes back fails by
// name; internal/history.TestHistoryAppendAllocations pins the four, and
// internal/engine.TestStepAllocatesNothingItDrops a start with reads and
// a complete with a write, on a log and a store with room, at none; the
// benchmark's allocs_per_cmd gates the sum.
//
// The remote hop adds 34 to the lifecycle's 12 — 2.6 a command, where it
// added 6.5 while the server decoded every line into a new command and
// copied its names, 27 while it decoded every line twice through
// encoding/json (envelope, then args) and the client marshalled every
// command twice (args, then line), 105 while the client encoded args
// through encoding/json, and 102 while a completion's outputs and a
// create's result reply were encoding/json's. A line is now read in one
// pass (internal/rpc "Wire model"), outputs that are plain strings
// included, the client appends its args with the journal's own appender
// and builds its line around them in reused buffers, the server appends
// its reply and the client reads it in place, calls and their channels
// are reused, and neither end of the watermark stream allocates per
// event. A command stream's decoder (WireDecoder) decodes every plain
// line into its own struct for the line's form and a completion's
// outputs into its own map, and resolves each name the System holds — an
// instance ID, the create's type, a node ID or user name — to the
// System's own string: the twelve decoded structs of a lifecycle, their
// 34 strings and the outputs map are gone, and nothing decoded aliases
// the line. What is left, from an allocation profile of 550 lifecycles
// over the command stream (sync starts and create, async completions;
// MemProfileRate 1, tiny strings counted from runtime.MemStats):
//
//	per lifecycle  allocation, and why it stays
//	    13  server: SubmitAsync's Receipt; every remote command is
//	        applied through it, and a sync one waits on it in the reply
//	        writer, off the reader's goroutine. Dropping it needs a
//	        receipt the caller owns, which would be a second way to
//	        submit
//	    13  client: what the caller is handed — Submit's SubmitResult,
//	        SubmitAsync's Receipt — for the same reason
//	     5  the create's result: a ResultSummary and an InstanceSummary
//	        on the server (2); on the client one object holding both,
//	        and the instance's ID and type (3)
//	     3  server: the one output of the completion that carries
//	        outputs — its value and the value's interface box, which the
//	        instance's data store keeps, and the key a map[string]any
//	        needs, which the completion drops
//	    ~1  client: the wake-up channel of a Receipt.Wait that parks
//
// internal/rpc.TestClientSubmitAllocations pins a remote create, start,
// complete, complete with outputs and suspend or resume at their measured
// counts (14, 3, 3, 9, 2) plus two, suspend/resume's plus one;
// TestDecodeWireCommandAllocations pins the decode alone — which recovery
// shares, record by record, at the struct and its strings — and a
// stream's decode of a start or complete whose names the System holds at
// none; TestDecodeBatchAllocations pins a 64-command frame on a stream
// at its commands' decodes, a new struct each, plus the one slice that
// holds them.
//
// # Memory budget
//
// An instance costs what it records. ADEPT2's storage argument is that a
// server holds 10⁴–10⁵ instances because each keeps only what is its own
// — marking, history, data versions, and a substitution block if biased —
// and references its schema; this is that argument in bytes, for the
// online-order instance the benchmark runs (10 nodes, 10 edges, 13
// commands), from an in-use heap profile of 2 000 of them (MemProfileRate
// 1, sizes as the allocator rounds them).
//
// A finished instance is sealed. Nothing runs it again — every mutating
// path refuses it as completed, and a migration classifies it from its
// done flag alone — so the command that finishes it drops its running
// part (internal/engine, Instance). What it keeps is its record:
//
//	  B  structure, and why it stays
//	224  the Instance: identity, type and schema reference, flags, bias
//	     slots, migration count, its mutex, and the history log (72) and
//	     data store (24) by value — what every reader of the instance and
//	     every refusal reads
//	224  the execution history: its 16 events packed into about 100
//	     bytes of records (128 as the log doubled), and the three
//	     bindings two activities read and one wrote, in a list sized for
//	     the schema's three data edges (96). It is the instance's record,
//	     and what its marking and execution index are derived from
//	 80  the engine's two instance containers (the ID map's entry and a
//	     pointer in the order; the instance holds its own position
//	     there) and the ID string: how the instance is found
//	112  the data store's element list (48), one version list (48) and
//	     the box of the written string (16): the instance's data
//
// A reader of a sealed instance's marking, execution index or loop counts
// (NodeState, MarkingSnapshot, StatsSnapshot, LoopIterations, a snapshot,
// monitor.RenderInstance, sim.Summary) gets them derived from the history
// on the instance's current view, into memory of its own: the index from
// the events as the commands kept it, the marking by the state adaptation
// a migration runs. Its exception state is empty. A running instance
// keeps, besides its record:
//
//	  B  structure, and why it stays
//	192  the running part: the marking (104) and execution index (40)
//	     every command reads and advances, loop counts and five
//	     exception maps (nil until used)
//	160  one pointer-free block: the marking's dense arrays — the
//	     evaluation worklist's bitset, node states, edge states — and the
//	     execution index's records, 12 B per schema node, sized by the
//	     schema and not by progress
//	     and per offered activity, a 112 B Item, an 8 B slot per
//	     candidate and a 16 B item list (internal/worklist)
//
// The node IDs and user names the histories refer to are kept once per
// engine, in its symbol table. A finished instance recovered from a
// snapshot is restored sealed and holds what the live one holds:
// RestoreInstance gives its records the capacity a live log of their
// length grew to, and shares the schema's IDs and parameter names and the
// data store's values with what it decoded.
//
// A biased instance adds its overlay (the hybrid representation of the
// paper's Fig. 2, the only one). With the benchmark's conflicting bias (an
// inserted activity and a sync edge: an 11-node, 12-edge view) that is,
// per instance:
//
//	   B  structure
//	 760  the overlay: its record, the delta's entries' lists and the six
//	      edge lists of the four nodes the delta touches
//	1321  the view's topology index: the ID map (503), an offset table and
//	      one arena of edge indices
//	1721  the view's block analysis, five small maps
//	 598  the inserted node and three edges, the two recorded operations,
//	      and what the marking and the execution index grow by for one
//	      more node
//
// TestInstanceHeapBudget pins what a finished instance holds and holds
// Instance.Footprint() to the measured heap; TestRecoveredInstanceHeap
// holds a recovered one to the live one; TestBiasedInstanceHeapBudget
// pins what the bias adds. The benchmark's heap_bytes_per_inst gates all
// of it at scale. What would move it further is named, not done: a
// binding could name its value as an (element, version) of the data store
// instead of holding it (at most 96 B here, and it would tie the log's
// lifetime to the store's DropWritesBy, Clone and decode order); and a
// sealed instance is the unit that cold-instance paging would page out.
//
// # Changes: one trial, one analysis
//
// An ad-hoc change, an undo and the migration of a biased instance each
// build one overlay: the instance's deployed version with its recorded ops
// and the new ones, the version with the ops an undo keeps, or the target
// version with the rebased bias. Each op is applied once, verify.Check runs
// once, and on success that overlay and the block analysis the verifier
// computed become the instance's — so the live overlay is by construction
// the one a restore rebuilds from the recorded ops. An undo to no bias and
// the migration of an unbiased instance verify nothing and reuse the
// deployed version's analysis. TestAdHocAllocationBudget pins the path on
// the engine: 174 allocations for a change of an unbiased or a biased
// instance, 172 for UndoLast and 20 for UndoAll (330, 310, 359 and 267
// while a change materialized the view, applied its ops a second time and
// analysed the result twice). A refused change leaves the instance as it
// was; the evolution package's TestChangePathsAgreeWithReference holds all
// four paths to that algorithm, kept as its reference.
//
// # Errors
//
// Every failure of the mutation API carries the Error taxonomy: a Code
// (ErrNotFound, ErrConflict, ErrNotCompliant, ErrSuspended,
// ErrVersionSkew, ErrWedged, ErrUnrecoverable, ErrFailed, ErrTimeout,
// …), the command name, and the targeted instance, matched by errors.Is
// against the Err* sentinels. Messages are unchanged from earlier
// releases — the typed wrapper renders its cause verbatim.
//
// # Exceptions, deadlines, and escalation
//
// An exception and the reaction to it are one journaled command. A
// running activity can FAIL (FailActivity): a Failed event lands in the
// physical history, the attempt is purged from the logical history, and
// the node reverts to activated. A running activity whose deadline
// (WithDeadline, armed from the injected clock at its start) expires
// TIMES OUT (TimeoutActivity, fired by System.SweepDeadlines): a Timeout
// event lands, the deadline disarms, and the work item escalates to the
// WithEscalation role. Inside either command, under the instance's lock,
// the ExceptionPolicy (WithExceptionPolicy) decides and the command
// applies the reaction and records it:
//
//	activated ── start ──▶ running ── fail ─┬─▶ activated, item withheld:
//	    ▲                     │             │   retry until retryAt,
//	    └──── RetryActivity ──┼─────────────┘   suspend until released
//	                          │             └─▶ deleted (skip)
//	                          └─ timeout ──▶ running, escalated
//
// A skip deletes the node through the trial an ad-hoc change runs and
// suspends where that is not compliant. Replay applies the recorded
// reaction without asking the policy, so no crash falls between an
// exception and its reaction and nothing presents one twice; a
// submitter's retryAt, pending or reaction never reaches the record. A
// journal from before a reaction rode its record replays as written: a
// pending failure whose separate compensation a crash lost stays
// withheld, and listed by OpenExceptions, until a RetryActivity.
// All timer math uses timestamps stamped onto journal records from the
// WithClock source — replay never reads a clock, so armed deadlines and
// backoffs survive snapshot+journal recovery bit-exactly.
//
// The adversarial validation harness for this machinery lives in
// internal/sim/soak (surfaced as `adeptctl sim`): populations of
// instances driven through random failures, deadline storms, concurrent
// evolutions, injected disk faults, crashes, and reopen cycles, with
// global invariants checked throughout.
//
// # Observability
//
// Every System carries a telemetry plane (internal/obs), on by default:
// cache-line-padded atomic counters, gauges, and fixed-bucket
// power-of-two histograms, pre-allocated at Open so the hot path never
// allocates — a singular submit pays two clock reads and a handful of
// uncontended atomic adds. WithMetricsDisabled switches the plane to
// the nil set, where recording is one predictable branch and zero
// allocations. The families cover every layer: per-op submit outcomes
// and latency, batch occupancy, per-shard journal appends and
// group-commit backlog, committer fsync latency and wedge/heal
// transitions, checkpoint and recovery cost, the exception loop, and
// the deadline sweep. The plane is installed only after Open-time
// recovery completes, so replay never pollutes live-path metrics —
// recovery reports through its own one-shot family instead.
//
// A sampled trace ring (WithTraceSampling) captures command
// lifecycles: op, instance, shard, journal seq, and the
// submit→applied→durable timeline stamped from the injected WithClock
// source — the event substrate the process-mining plane consumes. The
// ring is a subscription primitive too: obs.TraceRing.Export drains
// spans incrementally by publish cursor (served as /trace.json?after=N
// and `adeptctl trace -fetch`), tear-free under concurrent writers and
// never delivering a span twice.
//
// Three surfaces expose the plane: System.Metrics returns the typed
// obs.Snapshot; the ops routes of the one network surface (rpc.Server,
// below) serve /metrics (Prometheus text format 0.0.4), /metrics.json
// (the snapshot as JSON), /mine.json, /trace.json, and /healthz,
// folding HealthInfo into both metric forms; and `adeptctl stats`
// renders any journal's snapshot as text, Prometheus, or JSON, or
// validates a served endpoint. Every family is declared once, in one
// table in internal/obs: the Prometheus writer, the text form (one
// sample per line, counters and gauges without durations) and the
// exposition checker behind `adeptctl stats -fetch` all walk it, and
// `adeptctl stats -format prom` on any journal prints the whole
// catalogue with its HELP and TYPE. WithSweepInterval completes the
// operational story: an in-process timer runs SweepDeadlines on the
// system clock, records sweep duration and due-to-done lag, and shuts
// down cleanly on Close (`adeptctl serve` runs it every second).
//
// # Process intelligence
//
// System.Mine streams the live population through a bounded-memory
// mining fold (internal/mining) and returns a deterministic report:
// variant frequencies keyed by a canonical fingerprint of each
// instance's reduced execution history, hot-path extraction, per-node
// traversal and exception concentration (starts, completes, failures,
// timeouts, retries), activity-duration percentiles from journaled
// event timestamps, traversal edges, and drift — instances whose
// version, ad-hoc bias, or foreign nodes diverge from the latest
// deployed schema. The fingerprint folds only Completed events of the
// reduced history, so failed-then-retried attempts, Timeout markers,
// and superseded loop iterations never split a variant: two instances
// that took the same logical path hash identically even when one
// needed three attempts. The scan pages under the snapshot read
// barrier in shard-aligned batches, folding each instance inside its
// own lock with one shared reduction buffer — peak allocation is
// O(batch + capped tables), never O(population). The same report codec
// backs all three surfaces: `adeptctl mine` offline over any journal
// or layout, System.Mine in process, and /mine.json on a served
// system.
//
// # The networked command plane
//
// internal/rpc turns the in-process API into a network service without
// inventing a second protocol: the wire envelope {"op","args"} IS the
// journal record format, encoded and decoded through the same command
// table (AppendCommandArgs / EncodeCommand / DecodeWireCommand on this
// façade), so a command serialized by a remote client is byte for byte
// what the journal stores and replay consumes: a flat command's args are
// appended by the one AppendJSON the journal calls. rpc.NewServer mounts the
// HTTP/JSON plane on a System; rpc.Dial returns a typed Client whose
// Submit / SubmitAsync / SubmitBatch mirror the façade with identical
// durable-on-resolution semantics and the identical Error taxonomy —
// non-2xx answers carry a structured error envelope mapped through
// Code.HTTPStatus, and the client rehydrates it so errors.Is matches
// the Err* sentinels across the network. Submit, SubmitAsync and
// SubmitBatch share one full-duplex NDJSON exchange per client (POST
// /v1/commands: command lines and batch frames down, reply lines back in
// the same order), so a remote command costs a line each way rather than
// an HTTP request, and one client's commands reach the committer back to
// back; a single JSON body on the same route is that stream's length-one
// case.
//
// Async submission keeps its pipelining win remotely because receipts
// are tokens, not server state: a receipt is (shard, shard-local seq),
// durable exactly when the shard's fsync watermark reaches the seq.
// The server streams watermark advances over one NDJSON subscription
// (GET /v1/watermarks) and every client resolves any number of
// receipts locally against that single shared stream — resolving a
// window of N receipts costs zero additional requests. Reads
// (cursor-paginated instances and work items, instance detail, open
// exceptions, health) round out the plane. What a client holds across the
// hop outlives the process that handed it out: a work item is named by
// its (instance, node), so item IDs and worklist cursors mean the same
// after a restart — from a snapshot or by full replay — and after a
// reshard. The same listener carries the ops routes — a served process
// has one address, one mux and one drain; Server.Close drains gracefully,
// refusing new work, answering every command already read, forcing a
// final flush, and ending streams — watermark streams with Final events,
// so every receipt issued before the drain resolves, command streams even
// when the client never closes its side. See internal/rpc's package
// documentation for the wire invariants, and `adeptctl serve` /
// `-remote` for the CLI surface (`adeptctl list` and `load` run the same
// client code against -journal, serving the store on an in-process
// loopback listener).
package adept2
