package engine

import (
	"sync"
	"unsafe"

	"adept2/internal/data"
	"adept2/internal/graph"
	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/state"
	"adept2/internal/storage"
)

// Instance is one process instance. All exported methods are safe for
// concurrent use; the migration manager and the change framework obtain
// exclusive access through Mutate.
//
// While the instance can run it keeps a running part (running): its
// marking, execution index, loop counts and exception state. The command
// that finishes it seals it (cascadeLocked): under the instance's lock,
// after the command's last read of the marking, the running part is
// dropped. A sealed instance keeps its record — identity, version, flags,
// bias, migrations, history and data store — and nothing runs it again:
// every mutating path refuses it with fault.Completed before it reads the
// running part. A reader of its marking, execution index or loop counts
// (NodeState, MarkingSnapshot, StatsSnapshot, LoopIterations, Snapshot)
// gets them derived from the history on the current view (derivedLocked),
// in memory of its own; nothing derived is kept on the instance. Its
// exception state is empty: the sync that precedes the seal reconciles it
// against a marking with no activated or running node.
type Instance struct {
	mu  sync.Mutex
	eng *Engine

	id       string
	typeName string
	base     Deployed // the schema version the instance runs on, with its analysis

	// One word: done and suspended are the instance's own, and pos — the
	// instance's index in the engine's creation order — is the engine's,
	// read and written under Engine.mu.
	done      bool
	suspended bool
	pos       int32

	// The bias: the overlay biasOps build over the base, and the block
	// analysis of its view. All three are nil while the instance is
	// unbiased, when its view and analysis are the base's.
	overlay *storage.Overlay
	biasOps []BiasOp
	blocks  *graph.Info
	hist    history.Log // by value: one allocation and one pointer fewer per instance
	store   data.Store  // by value, as hist

	migrations int

	run *running // nil once the instance is sealed
}

// running is the part of an instance that only a running one keeps, one
// object; the marking's arrays and the execution index's records are one
// more (newRunning).
type running struct {
	marking  state.Marking
	stats    history.Stats
	loopIter map[string]int // loop end ID -> completed iterations; nil until a loop iterates

	// Exception state, all keyed by node ID and all rebuilt identically
	// by command replay (every transition below rides a journaled
	// command): deadlines holds the absolute expiry (unix nanos) armed
	// when a deadline-bearing activity started; retryAt holds the time a
	// failed activity's re-offer becomes due (its work item is
	// suppressed until then); failures counts consecutive failed
	// attempts; escalated marks running nodes whose deadline fired and
	// whose item was re-offered to the escalation role; compPending
	// marks failed nodes whose item is withheld until a Retry command
	// (a suspend reaction, or an older journal's pending). Entries are
	// reconciled against the marking on every worklist sync so they
	// never outlive the node state they describe.
	deadlines   map[string]int64
	retryAt     map[string]int64
	failures    map[string]int
	escalated   map[string]bool
	compPending map[string]bool
}

// newRunning returns an empty running part bound to the view's topology.
// Its marking's arrays and its index's records are both pointer-free, so
// they share one block: the part costs two allocations.
func newRunning(v model.SchemaView) *running {
	t := v.Topology()
	mw := state.Words(t)
	block := make([]uint64, mw+history.RecordWords(t.NumNodes()))
	r := &running{}
	r.marking.ResetIn(v, block[:mw:mw])
	r.stats.ResetIn(t, block[mw:])
	return r
}

// newInstance returns an instance of d; a live one has a running part, a
// sealed one (a finished instance a snapshot restores) none.
func newInstance(e *Engine, id string, d Deployed, live bool) *Instance {
	inst := &Instance{
		eng:      e,
		id:       id,
		typeName: d.Schema.TypeName(),
		base:     d,
		hist:     *e.syms.NewLog(),
	}
	if live {
		inst.run = newRunning(d.Schema)
	}
	return inst
}

// runLocked returns the running part to read: the instance's own, or for a
// sealed instance one derived from its history, which the caller owns.
func (inst *Instance) runLocked() *running {
	if inst.run != nil {
		return inst.run
	}
	return inst.derivedLocked()
}

// noExceptions is the exception state a sealed instance reads as: empty.
var noExceptions running

// exceptionsLocked returns the running part to read exception state from.
func (inst *Instance) exceptionsLocked() *running {
	if inst.run != nil {
		return inst.run
	}
	return &noExceptions
}

// ID returns the instance identifier.
func (inst *Instance) ID() string { return inst.id }

// TypeName returns the process type of the instance.
func (inst *Instance) TypeName() string { return inst.typeName }

// Version returns the schema version the instance currently runs on.
func (inst *Instance) Version() int {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.base.Schema.Version()
}

// Done reports whether the instance reached its end node.
func (inst *Instance) Done() bool {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.done
}

// Suspended reports whether user operations on the instance are blocked.
func (inst *Instance) Suspended() bool {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.suspended
}

// Biased reports whether the instance deviates from its schema version.
func (inst *Instance) Biased() bool {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return len(inst.biasOps) > 0
}

// BiasOps returns the instance-specific change operations applied so far.
func (inst *Instance) BiasOps() []BiasOp {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return append([]BiasOp(nil), inst.biasOps...)
}

// Migrations returns how often the instance migrated to a newer schema
// version.
func (inst *Instance) Migrations() int {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.migrations
}

// View returns the instance's current schema view: its base schema, or
// the overlay of its bias.
func (inst *Instance) View() model.SchemaView {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	v, _ := inst.viewLocked()
	return v
}

// NodeState returns the state of one node.
func (inst *Instance) NodeState(node string) state.NodeState {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.runLocked().marking.Node(node)
}

// MarkingSnapshot returns a copy of the instance marking.
func (inst *Instance) MarkingSnapshot() *state.Marking {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.runLocked().marking.Clone()
}

// HistoryLen returns the number of events in the physical execution
// history, without copying it.
func (inst *Instance) HistoryLen() int {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.hist.Len()
}

// HistoryEvents returns a copy of the physical execution history.
func (inst *Instance) HistoryEvents() []*history.Event {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.hist.Clone().Events().Decode(nil)
}

// MineView is the under-lock view of one instance handed to a
// MineHistory visitor: identity, state flags, the physical history, and
// its logical (loop/failure-purged) reduction. Both event slices are the
// scan's scratch, decoded from live engine state — the visitor must fold
// what it needs and return without retaining any pointer past the call.
type MineView struct {
	ID       string
	TypeName string
	Version  int
	Biased   bool
	Done     bool

	// Events is the physical history (every Started/Completed/Failed/
	// Timeout marker); Reduced is the logical history per
	// history.Reduce — superseded loop iterations and failed
	// attempts purged, Timeout markers dropped.
	Events  []*history.Event
	Reduced []*history.Event
}

// MineScratch is the caller-owned memory a scan's histories are decoded
// into, one instance after the other. The zero value is ready.
type MineScratch struct {
	events  []*history.Event // what Cursor.Decode reads into, and grows
	reduced []*history.Event // the same events again, for ReduceInPlace to reorder
}

// MineHistory runs visit over the instance's history under the instance
// lock, folding into caller-owned memory: the history is decoded into the
// scratch and reduced there. One scratch thus serves a whole scan batch —
// the mining layer's bounded-memory invariant — and allocates nothing
// once it has seen the longest history.
func (inst *Instance) MineHistory(sc *MineScratch, visit func(MineView)) {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	sc.events = inst.hist.Events().Decode(sc.events)
	_, info := inst.viewLocked()
	sc.reduced = history.ReduceInPlace(info, append(sc.reduced[:0], sc.events...))
	visit(MineView{
		ID:       inst.id,
		TypeName: inst.typeName,
		Version:  inst.base.Schema.Version(),
		Biased:   len(inst.biasOps) > 0,
		Done:     inst.done,
		Events:   sc.events,
		Reduced:  sc.reduced,
	})
}

// StatsSnapshot returns a copy of the per-node execution index.
func (inst *Instance) StatsSnapshot() *history.Stats {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.runLocked().stats.Clone()
}

// DataSnapshot returns a copy of the instance data store.
func (inst *Instance) DataSnapshot() *data.Store {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.store.Clone()
}

// LoopIterations returns how often the given loop end iterated.
func (inst *Instance) LoopIterations(loopEnd string) int {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.runLocked().loopIter[loopEnd]
}

// Deadline returns the armed absolute deadline (unix nanos) of a running
// node, and whether one is armed.
func (inst *Instance) Deadline(node string) (int64, bool) {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	dl, ok := inst.exceptionsLocked().deadlines[node]
	return dl, ok
}

// Deadlines returns a copy of all armed deadlines (node -> unix nanos).
func (inst *Instance) Deadlines() map[string]int64 {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return copyInt64Map(inst.exceptionsLocked().deadlines)
}

// FailureCount returns how many consecutive failed attempts the node has
// accumulated (reset on successful completion or loop purge).
func (inst *Instance) FailureCount(node string) int {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.exceptionsLocked().failures[node]
}

// Escalated reports whether the running node's deadline fired and its
// work item was re-offered to the escalation role.
func (inst *Instance) Escalated(node string) bool {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.exceptionsLocked().escalated[node]
}

// RetryDue returns the time (unix nanos) a failed node's re-offer
// becomes due, and whether a backoff is pending.
func (inst *Instance) RetryDue(node string) (int64, bool) {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	at, ok := inst.exceptionsLocked().retryAt[node]
	return at, ok
}

// PendingCompensation reports whether the failed node's work item is
// withheld until a Retry releases it.
func (inst *Instance) PendingCompensation(node string) bool {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.exceptionsLocked().compPending[node]
}

// StorageFootprint describes the memory attributable to one instance; the
// Fig. 2 experiment aggregates it.
type StorageFootprint struct {
	// BiasBytes is the representation cost of the instance-specific
	// schema: its substitution block.
	BiasBytes int
	// ViewBytes is what the instance holds to serve its own view beyond
	// that: the lists around a substitution block, the view's topology
	// index and its block analysis, from the sizes and capacities they
	// hold, and the recorded operations a migration or an undo rebuilds
	// the view from. It is 0 while the instance is unbiased — the index
	// and the analysis it reads then are the deployed version's.
	ViewBytes int
	// StateBytes covers the instance record and its entries in the
	// engine's indexes, marking, history, execution index and data
	// versions: each structure from its size and the capacities it
	// actually holds, so the sum over a population is its live heap to
	// within the allocator's size-class rounding.
	StateBytes int
}

// engineIndexBytes is what the engine's two instance containers hold per
// instance beside the ID's own bytes: the creation-order entry (a pointer)
// and the ID map's (a string header, a pointer and a control byte, at the
// map's 7/8 load).
const engineIndexBytes = 8 + (16+8+1)*8/7

// biasOpBytes is the estimate of one recorded change operation: its record
// and the node or the key it carries.
const biasOpBytes = 64

// Footprint returns the instance's storage footprint.
func (inst *Instance) Footprint() StorageFootprint {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	f := StorageFootprint{
		StateBytes: int(unsafe.Sizeof(*inst)) + (len(inst.id)+7)&^7 + engineIndexBytes +
			inst.hist.ApproxBytes() + inst.store.ApproxBytes(),
	}
	if r := inst.run; r != nil {
		// The struct sizes ApproxBytes counts are inside the running part's.
		f.StateBytes += int(unsafe.Sizeof(*r)-unsafe.Sizeof(r.marking)-unsafe.Sizeof(r.stats)) +
			r.marking.ApproxBytes() + r.stats.ApproxBytes()
	}
	if inst.overlay != nil {
		f.BiasBytes = inst.overlay.ApproxBytes()
		f.ViewBytes = inst.overlay.IndexBytes() + inst.blocks.ApproxBytes() +
			16*cap(inst.biasOps) + biasOpBytes*len(inst.biasOps)
	}
	return f
}

// viewLocked returns the current schema view and its block analysis.
func (inst *Instance) viewLocked() (model.SchemaView, *graph.Info) {
	if inst.overlay != nil {
		return inst.overlay, inst.blocks
	}
	return inst.base.Schema, inst.base.Blocks
}

// bootstrapLocked initializes the marking of a fresh instance and runs the
// automatic cascade.
func (inst *Instance) bootstrapLocked() error {
	inst.run.marking.Init(inst.base.Schema)
	return inst.cascadeLocked()
}

// Mutable is the controlled mutation surface handed out by Mutate. It is
// only valid within the Mutate callback.
type Mutable struct {
	inst *Instance
}

// Mutate runs fn with exclusive access to the instance internals and
// reconciles the worklist afterwards. The change framework, the migration
// manager and the failure and timeout commands are its only intended
// callers. Each refuses a finished instance (Done) before it reads the
// marking or the execution index: a sealed instance has neither.
func (inst *Instance) Mutate(fn func(mx *Mutable) error) error {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if err := fn(&Mutable{inst: inst}); err != nil {
		return err
	}
	if inst.run != nil { // a sealed instance's items went with the seal
		inst.syncWorklistLocked()
	}
	return nil
}

// View returns the current schema view. The error is always nil.
func (mx *Mutable) View() (model.SchemaView, error) {
	v, _ := mx.inst.viewLocked()
	return v, nil
}

// Blocks returns the block analysis of the current view. The error is
// always nil.
func (mx *Mutable) Blocks() (*graph.Info, error) {
	_, info := mx.inst.viewLocked()
	return info, nil
}

// Marking exposes the live marking. A finished instance has none.
func (mx *Mutable) Marking() *state.Marking { return &mx.inst.run.marking }

// Stats exposes the live execution index. A finished instance has none.
func (mx *Mutable) Stats() *history.Stats { return &mx.inst.run.stats }

// History exposes the live history log.
func (mx *Mutable) History() *history.Log { return &mx.inst.hist }

// Store exposes the live data store.
func (mx *Mutable) Store() *data.Store { return &mx.inst.store }

// ID returns the instance's ID.
func (mx *Mutable) ID() string { return mx.inst.id }

// Done reports whether the instance finished.
func (mx *Mutable) Done() bool { return mx.inst.done }

// BiasOps returns the recorded instance-specific change operations.
func (mx *Mutable) BiasOps() []BiasOp {
	return append([]BiasOp(nil), mx.inst.biasOps...)
}

// Base returns the deployed version the instance runs on, with the
// analysis Deploy verified it by.
func (mx *Mutable) Base() Deployed { return mx.inst.base }

// BuildOverlay applies ops in order to a fresh overlay over base: the one
// representation of a bias of those ops. A change, an undo and a migration
// build their trial with it, and RestoreInstance rebuilds the overlay the
// trial became from the recorded ops the same way.
func BuildOverlay(base *model.Schema, ops []BiasOp) (*storage.Overlay, error) {
	ov := storage.NewOverlay(base)
	for _, op := range ops {
		if err := op.ApplyTo(ov); err != nil {
			return nil, err
		}
	}
	return ov, nil
}

// SetBias makes a verified trial the instance's representation: ov, the
// overlay ops built over the base (BuildOverlay), becomes its view, blocks
// — the analysis the verifier computed of it — the view's analysis, and
// ops its recorded bias. A nil overlay returns the instance to its
// deployed version and that version's analysis. State adaptation is the
// caller's next step (AdaptState).
func (mx *Mutable) SetBias(ov *storage.Overlay, blocks *graph.Info, ops []BiasOp) {
	inst := mx.inst
	if ov == nil {
		blocks, ops = nil, nil
	}
	inst.overlay, inst.blocks, inst.biasOps = ov, blocks, ops
}

// MigrateTo moves the instance to a new schema version and installs its
// rebased bias there (SetBias; a nil overlay for an unbiased instance).
// State adaptation is the caller's next step (AdaptState).
func (mx *Mutable) MigrateTo(to Deployed, ov *storage.Overlay, blocks *graph.Info, rebased []BiasOp) {
	mx.inst.base = to
	mx.SetBias(ov, blocks, rebased)
	mx.inst.migrations++
}

// AdaptState recomputes the marking against the current view (the
// efficient state adaptation of the paper) and returns the newly activated
// nodes. It also advances the instance over any automatic nodes the
// adaptation enabled.
func (mx *Mutable) AdaptState() ([]string, error) {
	inst := mx.inst
	v, _ := inst.viewLocked()
	activated := state.Adapt(v, &inst.run.marking, &inst.run.stats)
	if err := inst.cascadeLocked(); err != nil {
		return activated, err
	}
	return activated, nil
}

// Cascade runs the automatic execution cascade (used after replay-based
// state adaptation).
func (mx *Mutable) Cascade() error { return mx.inst.cascadeLocked() }

// SetMarking replaces the instance marking wholesale. The replay-based
// state adaptation path (the ablation baseline to Adapt) installs the
// marking reconstructed by compliance.Replay and then runs Cascade. The
// instance's own marking takes over m's arrays, so the caller must not use
// m afterwards.
func (mx *Mutable) SetMarking(m *state.Marking) { mx.inst.run.marking = *m }
