// Package state implements ADEPT2 instance markings and their evaluation
// rules. A marking assigns every node a NodeState (NotActivated, Activated,
// Running, Completed, Skipped) and every edge an EdgeState (NotSignaled,
// TrueSignaled, FalseSignaled) — the state model visible in Fig. 1 of the
// paper ("completed", "activated", "running", "TRUE signaled", and the
// "Disabled" state which this implementation calls Skipped).
//
// A Marking is array-backed: node and edge states live in dense slices
// indexed by the interned model.NodeIdx/model.EdgeIdx of the view's
// Topology, so the per-event hot loops (evaluation, replay, adaptation)
// perform pure array indexing — no string-keyed map traffic. The string
// API (Node, SetNode, Edge, ...) remains at the package boundary and
// interns on entry. When the underlying view changes structurally (ad-hoc
// change, migration, a new bias on an overlay) the marking transparently
// remaps its state onto the new topology by node/edge identity — see
// ensure.
//
// Evaluate propagates markings by edge-driven incremental propagation: the
// marking tracks which nodes had an incoming edge signaled (or were
// themselves demoted) since the last evaluation, and Evaluate re-examines
// only that affected region, cascading through skips — O(affected) per
// event instead of a global fixpoint over all nodes. The same rules run
// during normal execution, after ad-hoc changes, and during migration
// state adaptation, which is what makes automatic state adaptation
// possible. Property tests (incremental_test.go) compare the interned
// evaluator against a retained string-keyed fixpoint reference.
package state

import (
	"fmt"
	"slices"
	"sort"
	"unsafe"

	"adept2/internal/arena"
	"adept2/internal/bitset"
	"adept2/internal/history"
	"adept2/internal/model"
)

// NodeState is the execution state of a node within one instance.
type NodeState uint8

const (
	// NotActivated: the node has not become executable yet.
	NotActivated NodeState = iota
	// Activated: all predecessors are satisfied; work items are offered.
	Activated
	// Running: a user or the system has started the node.
	Running
	// Completed: the node finished; outgoing edges are signaled.
	Completed
	// Skipped: the node lies on a dead path and will never execute
	// (the paper's "Disabled").
	Skipped
)

var nodeStateNames = [...]string{
	NotActivated: "not-activated",
	Activated:    "activated",
	Running:      "running",
	Completed:    "completed",
	Skipped:      "skipped",
}

func (s NodeState) String() string {
	if int(s) < len(nodeStateNames) {
		return nodeStateNames[s]
	}
	return fmt.Sprintf("node-state(%d)", uint8(s))
}

// Started reports whether the node has entered execution (running or
// completed). Fast compliance conditions are phrased in terms of this
// predicate.
func (s NodeState) Started() bool { return s == Running || s == Completed }

// EdgeState is the signaling state of an edge within one instance.
type EdgeState uint8

const (
	// NotSignaled: the source has not finished yet.
	NotSignaled EdgeState = iota
	// TrueSignaled: the source completed and selected this edge.
	TrueSignaled
	// FalseSignaled: the edge lies on a dead path.
	FalseSignaled
)

var edgeStateNames = [...]string{
	NotSignaled:   "not-signaled",
	TrueSignaled:  "true-signaled",
	FalseSignaled: "false-signaled",
}

func (s EdgeState) String() string {
	if int(s) < len(edgeStateNames) {
		return edgeStateNames[s]
	}
	return fmt.Sprintf("edge-state(%d)", uint8(s))
}

// Marking is the complete execution state of one process instance over its
// schema view. Node states and edge signals are dense arrays indexed by the
// interned indices of the bound topology; the zero state of every node is
// NotActivated and of every edge NotSignaled. When a node was skipped is
// not stored: SkipSeqAt derives it from the instance's execution index.
//
// The three dense arrays (the evaluation worklist's bitset, node states,
// edge states) are one allocation: a pointer-free []uint64 block laid out
// by layOut, each array with cap == len, so a marking costs its struct and
// one block sized by the schema. Every path that binds a marking to a
// topology (Reset, Clone, a remap, RebindTo, Import) lays out a block of
// its own, and ResetIn takes one from its caller — the engine's holds the
// instance's execution index too; no two markings share one.
//
// The marking additionally maintains the evaluation worklist: every edge
// signal records its target node and every demotion to NotActivated
// records the node itself as pending re-examination. Evaluate consumes the
// worklist; between mutations and the next Evaluate call the marking is at
// a fixpoint for all nodes NOT on the worklist.
//
// A marking is bound to the topology of the view it was created on. Every
// entry point that receives a view re-binds automatically when the view's
// topology changed (remapping state by node/edge identity), so markings
// survive ad-hoc changes, new biases on an overlay, and migrations without
// caller-side bookkeeping.
type Marking struct {
	topo *model.Topology
	arrays

	// pending is the evaluation worklist: nodes whose activation/skip
	// question may have a new answer. pendingSet (in arrays) deduplicates
	// it.
	pending []model.NodeIdx
}

// arrays are a marking's dense arrays, carved from one block (layOut).
type arrays struct {
	pendingSet bitset.Set  // dense by NodeIdx
	nodes      []NodeState // dense by NodeIdx
	edges      []EdgeState // dense by EdgeIdx
}

// blockWords is the size in words of the block that holds the arrays of a
// marking over n nodes and e edges: the bitset's words, then n bytes of
// node states and e of edge states.
func blockWords(n, e int) int { return bitset.Words(n) + (n+e+7)/8 }

// layOut carves the arrays for n nodes and e edges out of block, which
// holds blockWords(n, e) zeroed words, in the order blockWords lists them:
// each array ends where the next begins. An empty array is nil, so no
// slice points past the block.
func layOut(block []uint64, n, e int) arrays {
	w := bitset.Words(n)
	a := arrays{pendingSet: bitset.Set(block[:w:w])}
	if rest := block[w:]; len(rest) > 0 {
		p := unsafe.Pointer(unsafe.SliceData(rest))
		a.nodes = carve[NodeState](p, 0, n)
		a.edges = carve[EdgeState](p, n, e)
	}
	return a
}

// carve returns the n elements of type T at byte offset off from p.
func carve[T any](p unsafe.Pointer, off, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Add(p, off)), n)
}

// newArrays lays out zeroed arrays for n nodes and e edges in a fresh block.
func newArrays(n, e int) arrays { return layOut(make([]uint64, blockWords(n, e)), n, e) }

// NewMarking returns an empty marking (everything not activated) bound to
// the view's topology.
func NewMarking(v model.SchemaView) *Marking {
	m := &Marking{}
	m.Reset(v)
	return m
}

// Reset empties the marking (everything not activated, nothing pending)
// and binds it to the view's topology. A marking already bound to it keeps
// its block, cleared; any other lays out a fresh one. A restore resets
// the marking an instance was created with instead of allocating one.
func (m *Marking) Reset(v model.SchemaView) {
	t := v.Topology()
	if m.topo != t {
		m.topo, m.arrays = t, newArrays(t.NumNodes(), t.NumEdges())
	} else {
		clear(m.pendingSet)
		clear(m.nodes)
		clear(m.edges)
	}
	m.pending = m.pending[:0]
}

// Words returns the size in words of the block a marking bound to t lays
// its arrays out in (ResetIn).
func Words(t *model.Topology) int { return blockWords(t.NumNodes(), t.NumEdges()) }

// ResetIn is Reset into block, Words(v.Topology()) zeroed words the caller
// allocated, which the marking owns from then on: the engine carves it
// from one block with the pointer-free arrays of the execution index.
func (m *Marking) ResetIn(v model.SchemaView, block []uint64) {
	t := v.Topology()
	m.topo, m.arrays, m.pending = t, layOut(block, t.NumNodes(), t.NumEdges()), m.pending[:0]
}

// Topology returns the topology the marking is currently bound to.
func (m *Marking) Topology() *model.Topology { return m.topo }

// ensure re-binds the marking to the given topology if it changed,
// remapping all state by node/edge identity. States of nodes and edges no
// longer present are dropped (compliance guarantees deleted nodes never
// started); newly added nodes and edges start in their zero state.
func (m *Marking) ensure(t *model.Topology) {
	if m.topo == t {
		return
	}
	m.remap(t)
}

// sameShape reports whether two topologies intern identical node and edge
// sequences, so indices carry over one-to-one. Every change and undo
// builds a fresh overlay, and with it a fresh topology; one that only
// touches data flow (or restores it) leaves the node and edge sequence as
// it was — this check turns those re-binds into a pointer swap instead of
// a full remap copy.
func sameShape(a, b *model.Topology) bool { return model.SameNodes(a, b) && model.SameEdges(a, b) }

// RemapScratch amortizes the block allocation of marking remaps: loops
// that rebind many markings onto one target topology (the fast-mode
// migration workers) carve each instance's block out of one word arena
// instead of allocating one per instance. A carved block is owned by its
// marking for good (remaps replace, never grow, the arrays), so the arena
// only ever moves forward. The zero value is ready to use; a scratch must
// not be shared between goroutines.
type RemapScratch struct {
	words []uint64
}

// RebindTo re-binds the marking to the topology like ensure, drawing the
// target block from the scratch arena. Passing a nil scratch degrades to
// the allocating remap.
func (m *Marking) RebindTo(t *model.Topology, sc *RemapScratch) {
	if m.topo == t {
		return
	}
	if sc == nil || sameShape(m.topo, t) {
		m.remap(t)
		return
	}
	n, e := t.NumNodes(), t.NumEdges()
	m.remapInto(t, layOut(arena.Carve(&sc.words, blockWords(n, e)), n, e))
}

func (m *Marking) remap(t *model.Topology) {
	if sameShape(m.topo, t) {
		m.topo = t
		return
	}
	m.remapInto(t, newArrays(t.NumNodes(), t.NumEdges()))
}

// remapInto moves the marking's state onto topology t using the provided
// (zeroed, correctly sized) target arrays. An index the two topologies
// share (a base's and its patches') keeps its state in place unless t
// hides it; every other one is carried by its node or edge identity.
func (m *Marking) remapInto(t *model.Topology, to arrays) {
	old := m.topo
	sn, se := model.SharedPrefix(old, t)
	node := func(i model.NodeIdx) (model.NodeIdx, bool) {
		if int(i) < sn && !t.Hidden(i) {
			return i, true
		}
		return t.Idx(old.ID(i))
	}
	for i := range m.nodes {
		if m.nodes[i] == NotActivated {
			continue
		}
		if j, ok := node(model.NodeIdx(i)); ok {
			to.nodes[j] = m.nodes[i]
		}
	}
	for i := range m.edges {
		if m.edges[i] == NotSignaled {
			continue
		}
		ei := model.EdgeIdx(i)
		if int(ei) < se && !t.EdgeHidden(ei) {
			to.edges[ei] = m.edges[i]
		} else if j, ok := t.EdgeIdxOf(old.EdgeAt(ei).Key()); ok {
			to.edges[j] = m.edges[i]
		}
	}
	// The retained pending entries shrink or keep their count, so the old
	// slice can be compacted in place (reads stay ahead of writes).
	pending := m.pending[:0]
	for _, pi := range m.pending {
		j, ok := node(pi)
		if !ok {
			continue
		}
		if !to.pendingSet.Has(int(j)) {
			to.pendingSet.Set(int(j))
			pending = append(pending, j)
		}
	}
	m.topo, m.arrays, m.pending = t, to, pending
}

// markPendingAt queues a node for re-examination by the next Evaluate.
func (m *Marking) markPendingAt(i model.NodeIdx) {
	if !m.pendingSet.Has(int(i)) {
		m.pendingSet.Set(int(i))
		m.pending = append(m.pending, i)
	}
}

// Node returns the state of a node (NotActivated for nodes unknown to the
// bound topology).
func (m *Marking) Node(id string) NodeState {
	if i, ok := m.topo.Idx(id); ok {
		return m.nodes[i]
	}
	return NotActivated
}

// NodeAt returns the state of an interned node.
func (m *Marking) NodeAt(i model.NodeIdx) NodeState { return m.nodes[i] }

// Edge returns the state of an edge.
func (m *Marking) Edge(k model.EdgeKey) EdgeState {
	if i, ok := m.topo.EdgeIdxOf(k); ok {
		return m.edges[i]
	}
	return NotSignaled
}

// SetNode sets a node state directly. Callers outside this package should
// prefer the Start/Complete/Evaluate entry points. Demoting a node to
// NotActivated queues it for re-examination. Setting a node unknown to the
// bound topology is a no-op (states exist only for view nodes).
func (m *Marking) SetNode(id string, s NodeState) {
	if i, ok := m.topo.Idx(id); ok {
		m.SetNodeAt(i, s)
	}
}

// SetNodeAt sets the state of an interned node (see SetNode).
func (m *Marking) SetNodeAt(i model.NodeIdx, s NodeState) {
	if m.nodes[i] == s {
		return
	}
	m.nodes[i] = s
	if s == NotActivated {
		m.markPendingAt(i)
	}
}

// SetEdge sets an edge state directly. Any state change queues the edge's
// target node for re-examination. Setting an edge unknown to the bound
// topology is a no-op.
func (m *Marking) SetEdge(k model.EdgeKey, s EdgeState) {
	if i, ok := m.topo.EdgeIdxOf(k); ok {
		m.SetEdgeAt(i, s)
	}
}

// SetEdgeAt sets the state of an interned edge (see SetEdge).
func (m *Marking) SetEdgeAt(i model.EdgeIdx, s EdgeState) {
	if m.edges[i] == s {
		return
	}
	m.edges[i] = s
	if to := m.topo.EdgeTarget(i); to != model.InvalidNode {
		m.markPendingAt(to)
	}
}

// SkipSeqAt returns the event sequence number from which an interned node
// is skipped, derived from the instance's execution index, which is bound
// to the marking's topology (0 if the node is not skipped). A branch dies in the evaluation that follows the
// completion of the XOR split that deselected it, so an edge the split
// false-signaled dates from one past the split's completion; a node on a
// skipped node's edge dies with it, and a join with the last of its inputs.
func (m *Marking) SkipSeqAt(i model.NodeIdx, stats *history.Stats) int {
	if m.nodes[i] != Skipped {
		return 0
	}
	seq := 0
	for _, ei := range m.topo.At(i).InControlIdx() {
		if m.edges[ei] != FalseSignaled {
			continue
		}
		switch from, _ := m.topo.Idx(m.topo.EdgeAt(ei).From); m.nodes[from] {
		case Completed:
			seq = max(seq, stats.CompleteSeqAt(m.topo, from)+1)
		case Skipped:
			seq = max(seq, m.SkipSeqAt(from, stats))
		}
	}
	return seq
}

// NodesInState returns the IDs of all nodes currently in the given state,
// sorted for determinism. NotActivated is not enumerable (it is the
// default state).
func (m *Marking) NodesInState(s NodeState) []string {
	if s == NotActivated {
		return nil
	}
	var ids []string
	for i, ns := range m.nodes {
		if ns == s {
			ids = append(ids, m.topo.ID(model.NodeIdx(i)))
		}
	}
	sort.Strings(ids)
	return ids
}

// Clone returns a deep copy of the marking, including the pending
// evaluation worklist, in a block of its own. The clone shares the
// (immutable) topology binding.
func (m *Marking) Clone() *Marking {
	c := &Marking{topo: m.topo, arrays: newArrays(len(m.nodes), len(m.edges)), pending: slices.Clone(m.pending)}
	copy(c.pendingSet, m.pendingSet)
	copy(c.nodes, m.nodes)
	copy(c.edges, m.edges)
	return c
}

// ApproxBytes returns the memory held by the marking: the struct, its
// block and the worklist's capacity. The block scales with the view size
// (a byte per node/edge state plus the bitset), not with the number of
// non-default entries.
func (m *Marking) ApproxBytes() int {
	return int(unsafe.Sizeof(*m)) + 8*blockWords(len(m.nodes), len(m.edges)) + 4*cap(m.pending)
}

// Init marks the start node of the view completed and signals its outgoing
// edges — the state of a freshly created instance before the first
// Evaluate pass.
func (m *Marking) Init(v model.SchemaView) {
	m.ensure(v.Topology())
	start := m.topo.StartIdx()
	if start == model.InvalidNode {
		return
	}
	m.SetNodeAt(start, Completed)
	m.signalOutAt(start, 0)
}

// Start transitions an activated node to running.
func (m *Marking) Start(id string) error {
	i, ok := m.topo.Idx(id)
	if !ok {
		return fmt.Errorf("state: start %q: node not in schema", id)
	}
	return m.StartAt(i)
}

// StartAt transitions an activated interned node to running.
func (m *Marking) StartAt(i model.NodeIdx) error {
	if got := m.nodes[i]; got != Activated {
		return fmt.Errorf("state: start %q: node is %s, not activated", m.topo.ID(i), got)
	}
	m.nodes[i] = Running
	return nil
}

// Complete transitions a running node to completed and signals its
// outgoing control and sync edges. For an XOR split, decision selects the
// outgoing control edge code; all other edges are false-signaled. Loop
// edges are never signaled here: loop iteration is performed by ResetLoop.
func (m *Marking) Complete(v model.SchemaView, id string, decision int) error {
	m.ensure(v.Topology())
	i, ok := m.topo.Idx(id)
	if !ok {
		return fmt.Errorf("state: complete %q: node not in schema", id)
	}
	return m.CompleteAt(i, decision)
}

// CompleteAt transitions a running interned node to completed (see
// Complete).
func (m *Marking) CompleteAt(i model.NodeIdx, decision int) error {
	if got := m.nodes[i]; got != Running {
		return fmt.Errorf("state: complete %q: node is %s, not running", m.topo.ID(i), got)
	}
	m.nodes[i] = Completed
	m.signalOutAt(i, decision)
	return nil
}

// signalOutAt signals the outgoing control and sync edges of a completed
// node: true, except for the control edges an XOR split's decision did not
// select.
func (m *Marking) signalOutAt(i model.NodeIdx, decision int) {
	nt := m.topo.At(i)
	isXOR := nt.Node().Type == model.NodeXORSplit
	for _, ei := range nt.OutControlIdx() {
		if isXOR && m.topo.EdgeAt(ei).Code != decision {
			m.SetEdgeAt(ei, FalseSignaled)
		} else {
			m.SetEdgeAt(ei, TrueSignaled)
		}
	}
	for _, ei := range nt.OutSyncIdx() {
		m.SetEdgeAt(ei, TrueSignaled)
	}
}

// skipAt marks a node dead and false-signals everything leaving it.
func (m *Marking) skipAt(i model.NodeIdx) {
	nt := m.topo.At(i)
	m.nodes[i] = Skipped
	for _, ei := range nt.OutControlIdx() {
		m.SetEdgeAt(ei, FalseSignaled)
	}
	for _, ei := range nt.OutSyncIdx() {
		m.SetEdgeAt(ei, FalseSignaled)
	}
}

// Evaluate propagates the marking across the affected region: every node
// with a newly signaled incoming edge (or demoted by ResetLoop/Adapt) is
// re-examined; nodes whose incoming control edges are all true-signaled
// and whose incoming sync edges are all signaled become Activated; nodes
// on dead paths become Skipped, which cascades to their successors. It
// returns the IDs of newly activated nodes in view order.
func Evaluate(v model.SchemaView, m *Marking) []string {
	t := v.Topology()
	m.ensure(t)
	return idsOf(t, propagate(t, m, nil))
}

// EvaluateInto is Evaluate with a caller-owned activation buffer: newly
// activated nodes are appended to buf[:0] as interned indices and the
// (possibly re-grown) buffer is returned, so per-event loops (compliance
// replay) reuse one allocation across all evaluations.
func EvaluateInto(v model.SchemaView, m *Marking, buf []model.NodeIdx) []model.NodeIdx {
	t := v.Topology()
	m.ensure(t)
	return propagate(t, m, buf[:0])
}

func idsOf(t *model.Topology, idxs []model.NodeIdx) []string {
	if len(idxs) == 0 {
		return nil
	}
	ids := make([]string, len(idxs))
	for i, n := range idxs {
		ids[i] = t.ID(n)
	}
	return ids
}

// propagate is the incremental evaluation core: it processes the marking's
// pending worklist until empty. Skips triggered while draining re-queue
// their successors, so the propagation covers exactly the affected region.
// Newly activated nodes are appended to the provided buffer, which is
// returned sorted by view order.
func propagate(topo *model.Topology, m *Marking, activated []model.NodeIdx) []model.NodeIdx {
	for i := 0; i < len(m.pending); i++ {
		ni := m.pending[i]
		m.pendingSet.Clear(int(ni)) // a later signal must be able to re-queue
		if m.nodes[ni] != NotActivated {
			continue
		}
		nt := topo.At(ni)
		n := nt.Node()
		if n.Type == model.NodeStart {
			continue
		}
		inC := nt.InControlIdx()
		if len(inC) == 0 {
			continue // disconnected; verifier rejects such schemas
		}
		trueC, falseC := 0, 0
		for _, ei := range inC {
			switch m.edges[ei] {
			case TrueSignaled:
				trueC++
			case FalseSignaled:
				falseC++
			}
		}
		syncReady := true
		for _, ei := range nt.InSyncIdx() {
			if m.edges[ei] == NotSignaled {
				syncReady = false
				break
			}
		}

		switch n.Type {
		case model.NodeXORJoin:
			switch {
			case trueC == 1 && trueC+falseC == len(inC) && syncReady:
				m.nodes[ni] = Activated
				activated = append(activated, ni)
			case falseC == len(inC):
				m.skipAt(ni)
			}
		case model.NodeANDJoin:
			switch {
			case trueC == len(inC) && syncReady:
				m.nodes[ni] = Activated
				activated = append(activated, ni)
			case falseC == len(inC):
				m.skipAt(ni)
			}
		default:
			// Single incoming control edge (activities, splits, loop
			// start/end, end node).
			switch {
			case trueC == len(inC) && syncReady:
				m.nodes[ni] = Activated
				activated = append(activated, ni)
			case falseC > 0:
				m.skipAt(ni)
			}
		}
	}
	m.pending = m.pending[:0]
	if len(activated) > 1 {
		slices.Sort(activated)
	}
	return activated
}

// Adapt recomputes the marking after the underlying schema view changed
// (ad-hoc change or migration): the efficient state adaptation procedure
// the paper refers to for migrating instances. The marking is remapped
// onto the view's topology (dropping states of deleted nodes); states of
// started nodes (Running, Completed) are preserved; everything derivable —
// activations, skips, edge signals — is recomputed from the completed
// frontier.
//
// stats is the instance's execution index, bound to v's topology before
// the call (engine.Mutable.AdaptState binds it): it supplies the selection
// code of every completed XOR split, so dead paths re-derive identically.
// Returns the nodes activated after adaptation, in view order.
func Adapt(v model.SchemaView, m *Marking, stats *history.Stats) []string {
	topo := v.Topology()
	m.ensure(topo)
	// Demote derived states; keep started nodes. The demotions queue every
	// affected node for re-examination.
	for i := range m.nodes {
		switch m.nodes[i] {
		case Activated, Skipped:
			m.SetNodeAt(model.NodeIdx(i), NotActivated)
		}
	}
	// All edge signals are re-derived; the re-signaling below queues every
	// target whose inputs change.
	for i := range m.edges {
		m.edges[i] = NotSignaled
	}
	m.Init(v)
	start := topo.StartIdx()
	for i := range m.nodes {
		ni := model.NodeIdx(i)
		if m.nodes[i] != Completed || ni == start {
			continue
		}
		var dec int
		if topo.At(ni).Node().Type == model.NodeXORSplit {
			dec = stats.DecisionAt(topo, ni)
		}
		m.signalOutAt(ni, dec)
	}
	return Evaluate(v, m)
}

// ResetLoop rewinds a loop body for the next iteration: every node in the
// region (including the loop start and loop end) returns to NotActivated
// and every edge between region nodes to NotSignaled. The loop start's
// incoming control edge from outside the region remains true-signaled, so
// the next Evaluate pass re-activates the loop start. The region is a
// bitset over v's NodeIdx space: a graph.Block's Region of v's analysis.
func ResetLoop(v model.SchemaView, m *Marking, region bitset.Set) {
	topo := v.Topology()
	m.ensure(topo)
	for i := region.Next(0); i >= 0; i = region.Next(i + 1) {
		m.SetNodeAt(model.NodeIdx(i), NotActivated)
		nt := topo.At(model.NodeIdx(i))
		for _, out := range [...][]model.EdgeIdx{nt.OutControlIdx(), nt.OutSyncIdx(), nt.OutLoopIdx()} {
			for _, ei := range out {
				if to := topo.EdgeTarget(ei); to != model.InvalidNode && region.Has(int(to)) {
					m.SetEdgeAt(ei, NotSignaled)
				}
			}
		}
	}
}
