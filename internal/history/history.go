// Package history implements the ADEPT2 execution history: the per-
// instance log of start and completion events the compliance criterion
// replays. Reduce computes the *logical* (loop-purged) history — only the
// last iteration of every loop block is retained — which is exactly the
// view the paper's relaxed trace equivalence inspects.
//
// # What an event costs
//
// The history was two thirds of what an instance held in memory while
// every event was a 96 B heap object behind a pointer slice. Only
// compliance replay, mining, the snapshot encoder and HistoryEvents ever
// read it, always whole and from the front, so a Log stores an event as
// one record of a byte slice and hands it out decoded. A record is, byte
// by byte:
//
//	flags     1 byte: bits 0–1 the kind (Started … Timeout), bit 2 Again,
//	          bit 3 a user follows, bit 4 a timestamp, bit 5 a decision,
//	          bit 6 a value count, bit 7 the two rare members
//	kind      1 byte, with bit 7: the kind again, which may then be none
//	          of the four (a decoded snapshot may hold one)
//	node      uvarint: the node ID's symbol
//	user      uvarint: the user's symbol; absent for the empty user
//	at        zigzag varint: At minus the At of the last stamped event
//	          before this one (minus 0 for the first), wrapping; absent
//	          when At is 0
//	decision  zigzag varint; absent when Decision is -1
//	reason    uvarint length and the bytes, with bit 7: set when there is
//	          a reason — a Failed or a Timeout event — or an unknown kind
//	values    uvarint count of the event's bindings, which are the next
//	          that many of the log's one []data.Binding, in event order;
//	          absent when the event has none
//
// The event of an automatic node is two bytes, a stamped user event six to
// nine (thirteen for the first, whose timestamp has nothing to count
// from); the 16 events of an online-order lifecycle take about 100 bytes
// (TestEventSize pins the mean at 10) in one allocation that doubles from
// 32 B. Seq is not stored: it is the record's position plus one. The JSON
// a log writes and reads is that of the struct-and-two-maps form of the
// first journals: FuzzLogJSON holds the hand-written encoder to
// encoding/json's output for that form, FuzzPackedLog the records to the
// Event struct field for field.
//
// The binding list is made once, at an instance's first binding, with
// room for its view's data edges (Log.ReserveBindings): a run binds one
// value per data edge of each activity, so only a loop grows it.
//
// # The symbol table
//
// Node IDs and user names are kept once, in a Symbols table, and a record
// names them by number. An engine owns one table for all its instances —
// it dies with the engine, there is no package-level state — so it holds
// the distinct node IDs and user names that engine has recorded, strings
// its schemas, overlays and org model hold anyway, and never shrinks.
// Symbols are process-local: no journal or snapshot byte contains one. A
// log decoded from JSON, or made by NewLog, has a table of its own until
// Log.In moves it onto an engine's (engine.RestoreInstance).
//
// # Reading a log
//
// Log.Events returns a Cursor, and Cursor.Next decodes one event into an
// Event the caller owns: the struct is now only that decode target. Its
// strings are the table's and its Values alias the log's binding list;
// both are immutable once written, so a decoded event outlives appends to
// its log, but bindings must not be written through it. Readers that want
// a slice pass Cursor.Decode or ReduceInto a buffer, and pass the result
// back in as the next call's: the Events a buffer points to — behind its
// length too — are the decode targets of the next call, so a scan over a
// population allocates nothing once its buffer has seen the longest
// history, and a result is valid exactly until its buffer goes back in.
package history

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"unsafe"

	"adept2/internal/arena"
	"adept2/internal/bitset"
	"adept2/internal/data"
	"adept2/internal/graph"
	"adept2/internal/jsonx"
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

// Event is one entry of the execution history as a reader sees it: a Log
// stores records (package documentation) and decodes them into Events the
// caller owns, and Append reads one without keeping it. The fields are
// ordered by size so the struct has no interior padding (see
// TestEventSize); the JSON form is written and read by appendJSON and
// eventWire.
type Event struct {
	// Node is the schema node the event belongs to.
	Node string
	// User is the acting user (empty for automatic nodes).
	User string
	// Reason carries the failure reason of a Failed event (or the
	// deadline description of a Timeout event).
	Reason string
	// Values holds the parameter values supplied when the node started
	// (parameter -> value, on a Started event) or the element values
	// written on completion (element -> value, on a Completed event).
	// Events of other kinds carry none. Reads and Writes are the views.
	Values data.Values
	// At is the event's wall-clock timestamp (unix nanos), stamped from
	// the timestamp recorded on the journaled command so replay
	// reproduces it bit-exactly. Zero when the producing command carried
	// no timestamp (automatic cascades, implicit starts, pre-timestamp
	// journals) — duration analytics skip such events.
	At int64
	// Seq is the instance-wide sequence number (1-based, dense): the
	// event's position in its log plus one.
	Seq int32
	// Decision is the selection code chosen by a completed XOR split
	// (-1 when not applicable).
	Decision int32

	// Kind is Started, Completed, Failed or Timeout.
	Kind Kind
	// Again is true when a completed loop end decided to iterate.
	Again bool
}

// Reads returns the parameter values a Started event was supplied with.
func (e *Event) Reads() data.Values {
	if e.Kind == Started {
		return e.Values
	}
	return nil
}

// Writes returns the element values a Completed event wrote.
func (e *Event) Writes() data.Values {
	if e.Kind == Completed {
		return e.Values
	}
	return nil
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

// appendJSON appends the event's JSON object:
//
//	{"seq","kind","node","user","decision","again","reads","writes","reason","at"}
//
// in that order, every member after "node" omitted when zero or empty —
// what encoding/json wrote for the event while reads and writes were two
// map fields.
func (e *Event) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(e.Seq), 10)
	b = append(b, `,"kind":`...)
	b = strconv.AppendUint(b, uint64(e.Kind), 10)
	b = append(b, `,"node":`...)
	b = jsonx.AppendString(b, e.Node)
	if e.User != "" {
		b = append(b, `,"user":`...)
		b = jsonx.AppendString(b, e.User)
	}
	if e.Decision != 0 {
		b = append(b, `,"decision":`...)
		b = strconv.AppendInt(b, int64(e.Decision), 10)
	}
	if e.Again {
		b = append(b, `,"again":true`...)
	}
	key := ""
	switch {
	case len(e.Values) == 0:
	case e.Kind == Started:
		key = `,"reads":`
	case e.Kind == Completed:
		key = `,"writes":`
	}
	if key != "" {
		var err error
		if b, err = e.Values.AppendJSON(append(b, key...)); err != nil {
			return nil, fmt.Errorf("history: marshal event #%d: %w", e.Seq, err)
		}
	}
	if e.Reason != "" {
		b = append(b, `,"reason":`...)
		b = jsonx.AppendString(b, e.Reason)
	}
	if e.At != 0 {
		b = append(b, `,"at":`...)
		b = strconv.AppendInt(b, e.At, 10)
	}
	return append(b, '}'), nil
}

// eventWire is the decode form of an event's JSON object.
type eventWire struct {
	Seq      int32       `json:"seq"`
	Kind     Kind        `json:"kind"`
	Node     string      `json:"node"`
	User     string      `json:"user"`
	Decision int32       `json:"decision"`
	Again    bool        `json:"again"`
	Reads    data.Values `json:"reads"`
	Writes   data.Values `json:"writes"`
	Reason   string      `json:"reason"`
	At       int64       `json:"at"`
}

// event fills e from the decoded object. Reads belong to a Started event
// and writes to a Completed one; an object that carries either on another
// kind was not written by this package and is refused, not half kept.
func (w *eventWire) event(e *Event) error {
	*e = Event{Node: w.Node, User: w.User, Reason: w.Reason, At: w.At, Seq: w.Seq, Decision: w.Decision, Kind: w.Kind, Again: w.Again}
	switch {
	case len(w.Reads) > 0 && w.Kind != Started:
		return fmt.Errorf("history: event #%d: a %s event carries reads", w.Seq, w.Kind)
	case len(w.Writes) > 0 && w.Kind != Completed:
		return fmt.Errorf("history: event #%d: a %s event carries writes", w.Seq, w.Kind)
	case w.Kind == Started:
		e.Values = w.Reads
	case w.Kind == Completed:
		e.Values = w.Writes
	}
	return nil
}

// MarshalJSON implements json.Marshaler.
func (e *Event) MarshalJSON() ([]byte, error) { return e.appendJSON(nil) }

// UnmarshalJSON implements json.Unmarshaler.
func (e *Event) UnmarshalJSON(b []byte) error {
	var w eventWire
	if err := json.Unmarshal(b, &w); err != nil {
		return fmt.Errorf("history: unmarshal event: %w", err)
	}
	return w.event(e)
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
// recorded on; events is a full history in order, and is left as it was.
func Reduce(info *graph.Info, events []*Event) []*Event {
	return ReduceInPlace(info, slices.Clone(events))
}

// ReduceInPlace is Reduce within the caller's own slice: events is
// reordered so that the survivors come first, still in order, and that
// prefix is returned; the purged events stay behind it, in no order.
//
// The reduction is a single backward pass: scanning from the youngest
// event, an iterating loop-end completion activates its block's region
// bitset (Block.RegionBits), and every older event whose node lies in the
// active union is dropped. Properly nested loop blocks make this
// equivalent to the forward purge-on-Again formulation (reduceForward in
// history_test.go, the differential reference): an older Again inside an
// active region is itself dropped, and its region is a subset of the
// active one. A node is looked up only once a region is active.
func ReduceInPlace(info *graph.Info, events []*Event) []*Event {
	topo := info.Topology()        // never nil: graph.Analyze returns no Info without one
	var active bitset.Set          // lazily sized union of activated region bitsets
	var failedAhead map[string]int // per node: Failed events seen younger, Started not yet matched
	// The pass collects the survivors, in order, at events[w:].
	w := len(events)
	for i := len(events) - 1; i >= 0; i-- {
		e := events[i]
		if active != nil {
			if n, ok := topo.Idx(e.Node); ok && active.Has(int(n)) {
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
			if failedAhead != nil && failedAhead[e.Node] > 0 {
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
		w--
		events[i], events[w] = events[w], events[i] // events[i+1:w] are all purged
	}
	// Walk each survivor down over the w purged events before it.
	if w > 0 {
		for k := w; k < len(events); k++ {
			events[k-w], events[k] = events[k], events[k-w]
		}
	}
	return events[:len(events)-w]
}

// ReduceInto is Reduce over a log, decoded into the caller's scratch
// (Cursor.Decode) and reduced there: the result is a prefix of buf, with
// its capacity, valid until it or buf is passed to another call. Loops
// that reduce many histories (population migration workers, a mining scan)
// pass each result back in and stop allocating.
func ReduceInto(info *graph.Info, events Cursor, buf []*Event) []*Event {
	return ReduceInPlace(info, events.Decode(buf))
}

// Stats is the per-node execution index an instance maintains alongside
// its physical history. The fast compliance conditions consult it instead
// of scanning the history: "has this node started?", "when did it
// complete?", "which branch did this split choose?" all answer in O(1).
//
// The index is array-backed: when bound to a topology (Reset / Rebind),
// records live in a dense slice indexed by the interned
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
// Sequence numbers are event sequence numbers, 32-bit like Event.Seq: an
// instance keeps one record per schema node (TestEventSize pins the 12 B).
type NodeStat struct {
	// StartSeq is the sequence number of the node's start event (0 if
	// never started).
	StartSeq int32
	// CompleteSeq is the sequence number of the node's completion event
	// (0 if not completed).
	CompleteSeq int32
	// Decision is the XOR selection code chosen on completion (-1
	// otherwise).
	Decision int32
}

func (st *NodeStat) live() bool { return st.StartSeq > 0 || st.CompleteSeq > 0 }

// Reset empties the index and binds it to the topology, so records of its
// nodes are array-indexed. An index already bound to it keeps its record
// array, cleared. A restore resets the index an instance was created with
// instead of allocating one.
func (s *Stats) Reset(topo *model.Topology) {
	if s.topo != topo {
		s.topo, s.recs = topo, make([]NodeStat, topo.NumNodes())
	} else {
		clear(s.recs)
	}
	s.overflow = nil
}

// RecordWords returns the size in words of the record array of an index
// over n nodes (ResetIn).
func RecordWords(n int) int { return (n*int(unsafe.Sizeof(NodeStat{})) + 7) / 8 }

// ResetIn is Reset into block, RecordWords(topo.NumNodes()) zeroed words
// the caller allocated, which the index owns from then on: a record is
// three int32s, so the engine carves the array from one pointer-free block
// with its marking's arrays.
func (s *Stats) ResetIn(topo *model.Topology, block []uint64) {
	n := topo.NumNodes()
	if len(block) < RecordWords(n) {
		panic("history: ResetIn: block too small")
	}
	s.topo, s.recs, s.overflow = topo, nil, nil
	if n > 0 {
		s.recs = unsafe.Slice((*NodeStat)(unsafe.Pointer(unsafe.SliceData(block))), n)
	}
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
// sequence (the overlay a data-flow-only change builds) only swaps the
// binding.
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
	*s.slot(node) = NodeStat{StartSeq: int32(seq), Decision: -1}
}

// OnComplete records a completion event.
func (s *Stats) OnComplete(node string, seq, decision int) {
	st := s.slot(node)
	if !st.live() {
		*st = NodeStat{Decision: -1}
	}
	st.CompleteSeq = int32(seq)
	st.Decision = int32(decision)
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
		return int(st.StartSeq)
	}
	return 0
}

// CompleteSeq returns the node's completion sequence (0 if not completed).
func (s *Stats) CompleteSeq(node string) int {
	if st := s.get(node); st != nil {
		return int(st.CompleteSeq)
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
		return int(s.recs[i].StartSeq)
	}
	return s.StartSeq(topo.ID(i))
}

// CompleteSeqAt is CompleteSeq for an interned node of topo (see
// StartedAt).
func (s *Stats) CompleteSeqAt(topo *model.Topology, i model.NodeIdx) int {
	if s.topo == topo {
		return int(s.recs[i].CompleteSeq)
	}
	return s.CompleteSeq(topo.ID(i))
}

// DecisionAt returns the selection code recorded for the completion of an
// interned node of topo (see StartedAt), or 0 if the node has none — the
// code state.Adapt re-signals a completed XOR split with.
func (s *Stats) DecisionAt(topo *model.Topology, i model.NodeIdx) int {
	var st *NodeStat
	if s.topo == topo {
		st = &s.recs[i]
	} else {
		st = s.get(topo.ID(i))
	}
	if st == nil || st.CompleteSeq == 0 || st.Decision < 0 {
		return 0
	}
	return int(st.Decision)
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
		out = append(out, StatExport{ID: id, StartSeq: int(st.StartSeq), CompleteSeq: int(st.CompleteSeq), Decision: int(st.Decision)})
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

// Import resets the index to topo (Reset) and fills it from exported
// records. Records of nodes unknown to topo land in the overflow map,
// exactly as a live index would keep them across a rebind.
func (s *Stats) Import(topo *model.Topology, recs []StatExport) {
	s.Reset(topo)
	for _, r := range recs {
		*s.slot(r.ID) = NodeStat{StartSeq: int32(r.StartSeq), CompleteSeq: int32(r.CompleteSeq), Decision: int32(r.Decision)}
	}
}

// ApproxBytes returns the memory the index holds: the dense record array
// by its capacity — one record per schema node, executed or not — and the
// overflow records.
func (s *Stats) ApproxBytes() int {
	overflowEntry := unsafe.Sizeof("") + unsafe.Sizeof((*NodeStat)(nil)) + unsafe.Sizeof(NodeStat{})
	return int(unsafe.Sizeof(*s)) + cap(s.recs)*int(unsafe.Sizeof(NodeStat{})) + len(s.overflow)*int(overflowEntry)
}

// Len returns the number of live records (nodes that executed in the
// current iteration).
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
