// Package history implements the ADEPT2 execution history: the per-
// instance log of start and completion events the compliance criterion
// replays. Reduce computes the *logical* (loop-purged) history — only the
// last iteration of every loop block is retained — which is exactly the
// view the paper's relaxed trace equivalence inspects.
package history

import (
	"encoding/json"
	"fmt"
	"sort"

	"adept2/internal/arena"
	"adept2/internal/bitset"
	"adept2/internal/graph"
	"adept2/internal/model"
)

// Kind distinguishes event types.
type Kind uint8

const (
	// Started records that a node entered execution.
	Started Kind = iota
	// Completed records that a node finished, together with its routing
	// decision and the data it wrote.
	Completed
	// Failed records that a running node's execution failed: the attempt
	// is undone (the node reverts to activated) and — like a superseded
	// loop iteration — purged from the logical history, so compliance
	// judges the instance as if the attempt never ran.
	Failed
	// Timeout records that a running node exceeded its armed deadline.
	// The node keeps running (the work item escalates); Timeout events
	// are audit markers that Reduce drops from the logical history.
	Timeout
)

var kindNames = [...]string{
	Started:   "started",
	Completed: "completed",
	Failed:    "failed",
	Timeout:   "timeout",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one entry of the execution history.
type Event struct {
	// Seq is the instance-wide sequence number (1-based, dense).
	Seq int `json:"seq"`
	// Kind is Started or Completed.
	Kind Kind `json:"kind"`
	// Node is the schema node the event belongs to.
	Node string `json:"node"`
	// User is the acting user (empty for automatic nodes).
	User string `json:"user,omitempty"`
	// Decision is the selection code chosen by a completed XOR split
	// (-1 when not applicable).
	Decision int `json:"decision,omitempty"`
	// Again is true when a completed loop end decided to iterate.
	Again bool `json:"again,omitempty"`
	// Reads holds the parameter values supplied when the node started.
	Reads map[string]any `json:"reads,omitempty"`
	// Writes holds element values written on completion (element -> value).
	Writes map[string]any `json:"writes,omitempty"`
	// Reason carries the failure reason of a Failed event (or the
	// deadline description of a Timeout event).
	Reason string `json:"reason,omitempty"`
	// At is the event's wall-clock timestamp (unix nanos), stamped from
	// the timestamp recorded on the journaled command so replay
	// reproduces it bit-exactly. Zero when the producing command carried
	// no timestamp (automatic cascades, implicit starts, pre-timestamp
	// journals) — duration analytics skip such events.
	At int64 `json:"at,omitempty"`

	// Intern memo: idx is Node's dense index in the topology identified by
	// itopo. ReduceInto fills it lazily, so repeated reductions of the
	// same events against the same topology snapshot (every compliance
	// decision of an instance, each bench iteration) intern each event
	// once instead of once per call. Events are owned by one goroutine at
	// a time (the engine reduces under the instance lock; snapshots are
	// per-caller clones), so the two-word memo needs no synchronization.
	itopo *model.Topology
	idx   model.NodeIdx
}

func (e *Event) String() string {
	switch {
	case e.Kind == Failed:
		return fmt.Sprintf("#%d failed %s (%s)", e.Seq, e.Node, e.Reason)
	case e.Kind == Timeout:
		return fmt.Sprintf("#%d timeout %s", e.Seq, e.Node)
	case e.Kind == Completed && e.Again:
		return fmt.Sprintf("#%d completed %s (again)", e.Seq, e.Node)
	case e.Kind == Completed && e.Decision >= 0:
		return fmt.Sprintf("#%d completed %s (decision %d)", e.Seq, e.Node, e.Decision)
	case e.Kind == Completed:
		return fmt.Sprintf("#%d completed %s", e.Seq, e.Node)
	default:
		return fmt.Sprintf("#%d started %s", e.Seq, e.Node)
	}
}

// Clone returns a deep copy of the event.
func (e *Event) Clone() *Event {
	c := *e
	if e.Reads != nil {
		c.Reads = make(map[string]any, len(e.Reads))
		for k, v := range e.Reads {
			c.Reads[k] = v
		}
	}
	if e.Writes != nil {
		c.Writes = make(map[string]any, len(e.Writes))
		for k, v := range e.Writes {
			c.Writes[k] = v
		}
	}
	return &c
}

// Log is an append-only execution history.
type Log struct {
	events  []*Event
	nextSeq int
}

// NewLog returns an empty history.
func NewLog() *Log { return &Log{nextSeq: 1} }

// Append adds an event, assigning it the next sequence number, and returns
// the event.
func (l *Log) Append(e *Event) *Event {
	e.Seq = l.nextSeq
	l.nextSeq++
	l.events = append(l.events, e)
	return e
}

// Events returns the full physical history in order. Callers must not
// mutate the returned slice.
func (l *Log) Events() []*Event { return l.events }

// Len returns the number of events.
func (l *Log) Len() int { return len(l.events) }

// NextSeq returns the sequence number the next event will receive.
func (l *Log) NextSeq() int { return l.nextSeq }

// Clone returns a deep copy of the log.
func (l *Log) Clone() *Log {
	c := &Log{nextSeq: l.nextSeq, events: make([]*Event, len(l.events))}
	for i, e := range l.events {
		c.events[i] = e.Clone()
	}
	return c
}

// ApproxBytes estimates the memory held by the history.
func (l *Log) ApproxBytes() int {
	total := 0
	for _, e := range l.events {
		total += 48 + len(e.Node) + len(e.User) + 32*(len(e.Reads)+len(e.Writes))
	}
	return total
}

// MarshalJSON implements json.Marshaler.
func (l *Log) MarshalJSON() ([]byte, error) {
	return json.Marshal(l.events)
}

// UnmarshalJSON implements json.Unmarshaler.
func (l *Log) UnmarshalJSON(b []byte) error {
	var events []*Event
	if err := json.Unmarshal(b, &events); err != nil {
		return fmt.Errorf("history: unmarshal log: %w", err)
	}
	next := 1
	if n := len(events); n > 0 {
		next = events[n-1].Seq + 1
	}
	l.events = events
	l.nextSeq = next
	return nil
}

// Reduce computes the logical execution history: every loop iteration that
// was superseded by a later one is purged. Concretely, whenever a loop end
// completes with Again=true, all prior events of nodes inside that loop's
// region (including nested loops) are dropped together with the iterating
// completion itself. Failed activity attempts are purged the same way
// (the Failed event and its matching Started both drop), and Timeout
// markers are always dropped. The result is the history of the final
// iteration of every loop, with only work that actually succeeded — the
// paper's loop-tolerant compliance view.
//
// info must be the block analysis of the same schema view the events were
// recorded on.
func Reduce(info *graph.Info, events []*Event) []*Event {
	return ReduceInto(info, events, nil)
}

// ReduceInto is Reduce with a caller-provided result buffer: the reduction
// appends into buf[:0] and returns the (possibly re-grown) slice, so loops
// that reduce many histories (population migration workers) reuse one
// allocation instead of growing a fresh slice per instance.
//
// The reduction is a single backward pass over interned indices: scanning
// from the youngest event, an iterating loop-end completion activates its
// block's region bitset (Block.RegionBits), and every older event whose
// interned node lies in the active union is dropped. Properly nested loop
// blocks make this equivalent to the forward purge-on-Again formulation
// (reduceForward in history_test.go, the differential reference): an
// older Again inside an active region is itself dropped, and its region
// is a subset of the active one. Per event the pass costs one intern plus one bit probe —
// no per-purge rescans of the retained slice.
func ReduceInto(info *graph.Info, events []*Event, buf []*Event) []*Event {
	topo := info.Topology() // never nil: graph.Analyze returns no Info without one
	if buf == nil {
		buf = make([]*Event, 0, 16)
	}
	out := buf[:0]
	var active bitset.Set          // lazily sized union of activated region bitsets
	var failedAhead map[string]int // per node: Failed events seen younger, Started not yet matched
	for i := len(events) - 1; i >= 0; i-- {
		e := events[i]
		if active != nil {
			n := e.idx
			if e.itopo != topo {
				if j, ok := topo.Idx(e.Node); ok {
					n = j
				} else {
					n = model.InvalidNode
				}
				e.itopo, e.idx = topo, n
			}
			if n != model.InvalidNode && active.Has(int(n)) {
				continue // inside an iterated loop's region: purged
			}
		}
		switch e.Kind {
		case Timeout:
			continue // audit marker: never part of the logical history
		case Failed:
			// A failed attempt is purged like a superseded loop
			// iteration: drop the Failed event and remember to drop the
			// matching (next-older) Started of the same node.
			if failedAhead == nil {
				failedAhead = make(map[string]int)
			}
			failedAhead[e.Node]++
			continue
		case Started:
			if failedAhead[e.Node] > 0 {
				failedAhead[e.Node]--
				continue
			}
		}
		if e.Kind == Completed && e.Again {
			if blk, ok := info.ByJoin(e.Node); ok && blk.Kind == model.NodeLoopStart {
				if active == nil {
					active = bitset.New(topo.NumNodes())
				}
				active.Union(blk.RegionBits())
				continue // the iterating completion itself is purged
			}
		}
		out = append(out, e)
	}
	// The backward pass collected survivors youngest-first; restore order.
	for l, r := 0, len(out)-1; l < r; l, r = l+1, r-1 {
		out[l], out[r] = out[r], out[l]
	}
	return out
}

// Stats is the per-node execution index an instance maintains alongside
// its physical history. The fast compliance conditions consult it instead
// of scanning the history: "has this node started?", "when did it
// complete?", "which branch did this split choose?" all answer in O(1).
//
// The index is array-backed: when bound to a topology (NewStatsFor /
// Rebind), records live in a dense slice indexed by the interned
// model.NodeIdx. Nodes unknown to the bound topology (e.g. inserted by an
// ad-hoc change before the next rebind) spill into an overflow map, so the
// index stays correct even when a rebind is deferred.
type Stats struct {
	topo     *model.Topology
	recs     []NodeStat // dense by NodeIdx; live iff StartSeq or CompleteSeq > 0
	overflow map[string]*NodeStat
}

// NodeStat is the execution record of one node in the *current* loop
// iteration (stats of purged iterations are removed, mirroring Reduce).
type NodeStat struct {
	// StartSeq is the sequence number of the node's start event (0 if
	// never started).
	StartSeq int
	// CompleteSeq is the sequence number of the node's completion event
	// (0 if not completed).
	CompleteSeq int
	// Decision is the XOR selection code chosen on completion (-1
	// otherwise).
	Decision int
}

func (st *NodeStat) live() bool { return st.StartSeq > 0 || st.CompleteSeq > 0 }

// NewStats returns an empty, unbound index (all records overflow-kept).
func NewStats() *Stats { return &Stats{} }

// NewStatsFor returns an empty index bound to the topology, so records of
// its nodes are array-indexed.
func NewStatsFor(topo *model.Topology) *Stats {
	return &Stats{topo: topo, recs: make([]NodeStat, topo.NumNodes())}
}

// RebindScratch amortizes the dense record-array allocation of stats
// rebinds, mirroring state.RemapScratch: migration workers carve each
// instance's target array out of a block-allocated arena instead of
// allocating per instance. The zero value is ready; not goroutine-safe.
type RebindScratch struct {
	recs []NodeStat
}

// Rebind re-indexes the stats against a new topology (after an ad-hoc
// change, bias refresh, or migration changed the node set): dense and
// overflow records resolvable in the new topology move into the new dense
// array, the rest stay in overflow. Rebinding to the already-bound
// topology is a cheap no-op; a fresh topology with an identical node
// sequence (the on-the-fly strategy re-materializes one per access) only
// swaps the binding.
func (s *Stats) Rebind(topo *model.Topology) { s.RebindPooled(topo, nil) }

// RebindPooled is Rebind drawing the target record array from — and
// releasing the replaced array into — the scratch (nil scratch allocates).
func (s *Stats) RebindPooled(topo *model.Topology, sc *RebindScratch) {
	if s.topo == topo || topo == nil {
		return
	}
	if s.topo != nil && sameNodeSeq(s.topo, topo) {
		s.topo = topo
		return
	}
	var recs []NodeStat
	if sc != nil {
		recs = arena.Carve(&sc.recs, topo.NumNodes())
	} else {
		recs = make([]NodeStat, topo.NumNodes())
	}
	var overflow map[string]*NodeStat
	keep := func(id string, st NodeStat) {
		if i, ok := topo.Idx(id); ok {
			recs[i] = st
			return
		}
		if overflow == nil {
			overflow = make(map[string]*NodeStat)
		}
		cp := st
		overflow[id] = &cp
	}
	for i := range s.recs {
		if s.recs[i].live() {
			keep(s.topo.ID(model.NodeIdx(i)), s.recs[i])
		}
	}
	for id, st := range s.overflow {
		keep(id, *st)
	}
	s.topo, s.recs, s.overflow = topo, recs, overflow
}

// sameNodeSeq reports whether two topologies intern the identical node
// sequence (cheap: clones share ID string backing, so equality
// short-circuits on the data pointer).
func sameNodeSeq(a, b *model.Topology) bool {
	if a.NumNodes() != b.NumNodes() {
		return false
	}
	for i, n := 0, a.NumNodes(); i < n; i++ {
		if a.ID(model.NodeIdx(i)) != b.ID(model.NodeIdx(i)) {
			return false
		}
	}
	return true
}

// slot returns a writable record for the node, creating the overflow entry
// if the node is unknown to the bound topology.
func (s *Stats) slot(node string) *NodeStat {
	if s.topo != nil {
		if i, ok := s.topo.Idx(node); ok {
			return &s.recs[i]
		}
	}
	st, ok := s.overflow[node]
	if !ok {
		st = &NodeStat{}
		if s.overflow == nil {
			s.overflow = make(map[string]*NodeStat)
		}
		s.overflow[node] = st
	}
	return st
}

// get returns the node's record, or nil if the node never executed in the
// current iteration.
func (s *Stats) get(node string) *NodeStat {
	if s.topo != nil {
		if i, ok := s.topo.Idx(node); ok {
			if s.recs[i].live() {
				return &s.recs[i]
			}
			return nil
		}
	}
	if st, ok := s.overflow[node]; ok && st.live() {
		return st
	}
	return nil
}

// OnStart records a start event.
func (s *Stats) OnStart(node string, seq int) {
	*s.slot(node) = NodeStat{StartSeq: seq, Decision: -1}
}

// OnComplete records a completion event.
func (s *Stats) OnComplete(node string, seq, decision int) {
	st := s.slot(node)
	if !st.live() {
		*st = NodeStat{Decision: -1}
	}
	st.CompleteSeq = seq
	st.Decision = decision
}

// OnFail removes the node's execution record: a failed attempt is not
// part of the logical history (Reduce purges its Started/Failed pair),
// so the fast compliance conditions must forget it the same way.
func (s *Stats) OnFail(node string) {
	if s.topo != nil {
		if i, ok := s.topo.Idx(node); ok {
			s.recs[i] = NodeStat{}
			return
		}
	}
	delete(s.overflow, node)
}

// PurgeRegion removes the stats of all nodes in a loop region, called when
// the loop iterates (mirrors Reduce).
func (s *Stats) PurgeRegion(region map[string]bool) {
	for id := range region {
		if s.topo != nil {
			if i, ok := s.topo.Idx(id); ok {
				s.recs[i] = NodeStat{}
				continue
			}
		}
		delete(s.overflow, id)
	}
}

// Started reports whether the node started in the current iteration.
func (s *Stats) Started(node string) bool {
	st := s.get(node)
	return st != nil && st.StartSeq > 0
}

// StartSeq returns the node's start sequence (0 if not started).
func (s *Stats) StartSeq(node string) int {
	if st := s.get(node); st != nil {
		return st.StartSeq
	}
	return 0
}

// CompleteSeq returns the node's completion sequence (0 if not completed).
func (s *Stats) CompleteSeq(node string) int {
	if st := s.get(node); st != nil {
		return st.CompleteSeq
	}
	return 0
}

// StartedAt is Started for an interned node of topo. When the stats are
// bound to exactly that topology the answer is a single array probe; any
// other binding falls back to the string path (correct, just slower).
func (s *Stats) StartedAt(topo *model.Topology, i model.NodeIdx) bool {
	if s.topo == topo {
		return s.recs[i].StartSeq > 0
	}
	return s.Started(topo.ID(i))
}

// StartSeqAt is StartSeq for an interned node of topo (see StartedAt).
func (s *Stats) StartSeqAt(topo *model.Topology, i model.NodeIdx) int {
	if s.topo == topo {
		return s.recs[i].StartSeq
	}
	return s.StartSeq(topo.ID(i))
}

// CompleteSeqAt is CompleteSeq for an interned node of topo (see
// StartedAt).
func (s *Stats) CompleteSeqAt(topo *model.Topology, i model.NodeIdx) int {
	if s.topo == topo {
		return s.recs[i].CompleteSeq
	}
	return s.CompleteSeq(topo.ID(i))
}

// StatExport is the stable, ID-keyed serialized record of one node's
// execution — the dense index does not survive a topology rebuild, the ID
// does.
type StatExport struct {
	ID          string `json:"id"`
	StartSeq    int    `json:"start,omitempty"`
	CompleteSeq int    `json:"complete,omitempty"`
	Decision    int    `json:"decision"`
}

// Export serializes all live records (dense and overflow), sorted by node
// ID for determinism.
func (s *Stats) Export() []StatExport {
	var out []StatExport
	add := func(id string, st *NodeStat) {
		out = append(out, StatExport{ID: id, StartSeq: st.StartSeq, CompleteSeq: st.CompleteSeq, Decision: st.Decision})
	}
	for i := range s.recs {
		if s.recs[i].live() {
			add(s.topo.ID(model.NodeIdx(i)), &s.recs[i])
		}
	}
	for id, st := range s.overflow {
		if st.live() {
			add(id, st)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ImportStats rebuilds a stats index bound to topo from exported records.
// Records of nodes unknown to topo land in the overflow map, exactly as a
// live index would keep them across a rebind.
func ImportStats(topo *model.Topology, recs []StatExport) *Stats {
	s := NewStatsFor(topo)
	for _, r := range recs {
		*s.slot(r.ID) = NodeStat{StartSeq: r.StartSeq, CompleteSeq: r.CompleteSeq, Decision: r.Decision}
	}
	return s
}

// Decisions extracts the selection codes of all completed XOR splits,
// keyed by node ID; state.Adapt consumes this to re-derive dead paths.
func (s *Stats) Decisions() map[string]int {
	d := make(map[string]int)
	for i := range s.recs {
		if st := &s.recs[i]; st.CompleteSeq > 0 && st.Decision >= 0 {
			d[s.topo.ID(model.NodeIdx(i))] = st.Decision
		}
	}
	for id, st := range s.overflow {
		if st.CompleteSeq > 0 && st.Decision >= 0 {
			d[id] = st.Decision
		}
	}
	return d
}

// Len returns the number of live records (nodes that executed in the
// current iteration); the storage footprint accounting uses it.
func (s *Stats) Len() int {
	n := 0
	for i := range s.recs {
		if s.recs[i].live() {
			n++
		}
	}
	for _, st := range s.overflow {
		if st.live() {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the stats index.
func (s *Stats) Clone() *Stats {
	c := &Stats{topo: s.topo, recs: append([]NodeStat(nil), s.recs...)}
	if len(s.overflow) > 0 {
		c.overflow = make(map[string]*NodeStat, len(s.overflow))
		for id, st := range s.overflow {
			cp := *st
			c.overflow[id] = &cp
		}
	}
	return c
}
