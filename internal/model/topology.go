package model

import (
	"slices"
	"unsafe"

	"adept2/internal/bitset"
)

// NodeIdx is the dense interned index of a node within one Topology. The
// visible indices of a topology, in ascending order, are its view's
// NodeIDs order, so array lookups replace string-keyed map traffic in
// every per-event hot loop (marking evaluation, compliance replay, state
// adaptation). A built topology has no hidden index: its nodes fill
// [0, NumNodes()). A patch (Topology.Patch) shares its base's indices,
// hides those of the base nodes its delta removes or replaces, and appends
// its own nodes after them.
//
// A NodeIdx is only meaningful relative to the Topology that assigned it,
// and to the base and the other patches of that base below the base's
// NumNodes() (SharedPrefix). Structural mutations produce a new Topology —
// consumers that hold state indexed by NodeIdx (internal/state.Marking)
// must remap when the topology pointer changes.
type NodeIdx int32

// InvalidNode is the sentinel for "not part of the indexed view".
const InvalidNode NodeIdx = -1

// EdgeIdx is the dense interned index of an edge within one Topology: its
// visible indices in ascending order are SchemaView.Edges order. Like
// NodeIdx it is valid only for the Topology that assigned it, and a patch
// shares its base's edge indices, hides some and appends its own.
type EdgeIdx int32

// The typed adjacency ranges of one node, in arena order: the three out
// ranges in EdgeType order, then the three in ranges, so adjOutControl+t
// and adjInControl+t name the ranges of edge type t.
const (
	adjOutControl = iota
	adjOutSync
	adjOutLoop
	adjInControl
	adjInSync
	adjInLoop
	adjRanges
)

// NodeTopology is the handle of one node of a Topology: the node record
// and its incident edges split by edge type, each list a sub-slice of one
// adjacency arena — the topology's own or, for a node a patch leaves
// untouched, its base's; At resolves which once per handle. The lists are
// the view's only adjacency: every reader of who connects to whom — the
// marking evaluator's inner loop, the graph walks, the verifier, the
// change operations — reads them, and the hot path allocates nothing.
//
// The lists hold dense edge indices; Topology.EdgeAt turns one into the
// edge record (selection code, endpoint IDs). They alias the arena and
// must not be mutated.
type NodeTopology struct {
	t *Topology // the topology the handle was taken from
	a *Topology // the topology whose arena holds the node's lists
	i NodeIdx   // the node's index in t
	s int32     // the node's slot in a's arena
}

// Node returns the node record itself: the *Node the view's Node(id)
// returns.
func (nt NodeTopology) Node() *Node { return nt.t.node(nt.i) }

// list returns the node's list of range r.
func (nt NodeTopology) list(r int) []EdgeIdx {
	s := adjRanges*int(nt.s) + r
	return nt.a.adj[nt.a.off[s]:nt.a.off[s+1]:nt.a.off[s+1]]
}

// OutControlIdx returns the outgoing control edges.
func (nt NodeTopology) OutControlIdx() []EdgeIdx { return nt.list(adjOutControl) }

// OutSyncIdx returns the outgoing sync edges.
func (nt NodeTopology) OutSyncIdx() []EdgeIdx { return nt.list(adjOutSync) }

// OutLoopIdx returns the outgoing loop back edges.
func (nt NodeTopology) OutLoopIdx() []EdgeIdx { return nt.list(adjOutLoop) }

// InControlIdx returns the incoming control edges.
func (nt NodeTopology) InControlIdx() []EdgeIdx { return nt.list(adjInControl) }

// InSyncIdx returns the incoming sync edges.
func (nt NodeTopology) InSyncIdx() []EdgeIdx { return nt.list(adjInSync) }

// InLoopIdx returns the incoming loop back edges.
func (nt NodeTopology) InLoopIdx() []EdgeIdx { return nt.list(adjInLoop) }

// Topology is the precomputed topology index of a schema view: per-node
// typed adjacency plus derived node lists the engine's hot paths scan
// (auto-executable nodes for the execution cascade, manual activities for
// worklist reconciliation). It doubles as the view's node/edge interner:
// every node receives a dense NodeIdx and every edge a dense EdgeIdx, and
// the int-indexed accessors (At, EdgeTarget, EdgeStateAt consumers) let
// the replay stack run map-free between package boundaries.
//
// The adjacency is one arena: adj holds every typed list of every node
// with lists of its own back to back, and the list of the node in slot s,
// range r, is adj[off[adjRanges*s+r]:off[adjRanges*s+r+1]] — one offset
// per list instead of a slice header and an allocation each. A built
// topology's slot of a node is its index.
//
// A patch (Patch) indexes a biased view by its base view's index: it holds
// what its delta changes and reads the rest from the base. Its nodes and
// edges are the ones it appends, and its arena the lists of those nodes
// and then of the base nodes an added or hidden edge touches (own); every
// other node's record and lists, and every other edge's, are the base's.
//
// A Topology is an immutable snapshot of the view it was built from. Views
// cache it (see Schema.Topology and Overlay.Topology in internal/storage)
// and drop the cache on every structural mutation, so holding a *Topology
// across a mutation observes stale data — re-fetch it from the view
// instead. Two topologies assign alike only the indices below their common
// base's counts (SharedPrefix); past them, remap through the string IDs.
type Topology struct {
	byID  map[string]NodeIdx // nil in a patch
	nodes []*Node            // by NodeIdx from baseNodes on

	edges  []*Edge   // by EdgeIdx from baseEdges on
	edgeTo []NodeIdx // by edges: interned target node

	off []uint32  // adjRanges*slots+1 ascending arena offsets
	adj []EdgeIdx // the arena; each list in Edges order

	autoIdx   []NodeIdx // CanAutoExecute nodes in view order
	manualIdx []NodeIdx // manual (user-worked) activities in view order

	start     NodeIdx
	end       NodeIdx
	dataEdges int32 // of the indexed nodes

	// A patch's part, zero in a built topology: its base and the base's
	// counts, the base nodes and edges it hides (node i at bit i, edge i at
	// bit baseNodes+i) and the base nodes with lists in its arena (node i
	// at bit baseNodes+baseEdges+i, and in own, ascending), and the base
	// edges whose target node it replaced, ascending.
	baseNodes int32
	baseEdges int32
	base      *Topology
	bits      bitset.Set
	own       []NodeIdx
	retarget  []retarget
}

// retarget is the target of a base edge in a patch that replaced it.
type retarget struct {
	edge EdgeIdx
	to   NodeIdx
}

// BuildTopology computes the topology index of a view from scratch.
// Callers should prefer SchemaView.Topology, which returns the view's
// cached index.
func BuildTopology(v SchemaView) *Topology {
	ids := v.NodeIDs()
	t := &Topology{
		byID:  make(map[string]NodeIdx, len(ids)),
		nodes: make([]*Node, 0, len(ids)),
		start: InvalidNode,
		end:   InvalidNode,
	}
	for _, id := range ids {
		n, ok := v.Node(id)
		if !ok {
			continue
		}
		idx := NodeIdx(len(t.nodes))
		t.byID[id] = idx
		t.nodes = append(t.nodes, n)
		t.dataEdges += int32(len(v.DataEdgesOf(id)))
		if n.CanAutoExecute() {
			t.autoIdx = append(t.autoIdx, idx)
		}
		if n.manual() {
			t.manualIdx = append(t.manualIdx, idx)
		}
		switch n.Type {
		case NodeStart:
			t.start = idx
		case NodeEnd:
			t.end = idx
		}
	}

	// A copy: a Schema edits its edge list in place, and a marking still
	// bound to this snapshot reads its edges while it remaps to the next.
	t.edges = slices.Clone(v.Edges())
	t.edgeTo = make([]NodeIdx, len(t.edges))
	// The arena is filled by a counting sort over (node, range) slots: off
	// is built one slot ahead, so that after the counts are summed
	// off[s+1] is where slot s starts, and after the fill has advanced it
	// past the slot's entries it is where slot s+1 starts.
	off := make([]uint32, adjRanges*len(t.nodes)+2)
	slots := func(ei int, e *Edge) (out, in int) {
		out, in = -1, -1
		if i, ok := t.byID[e.From]; ok && e.Type <= EdgeLoop {
			out = adjRanges*int(i) + adjOutControl + int(e.Type)
		}
		if i := t.edgeTo[ei]; i != InvalidNode && e.Type <= EdgeLoop {
			in = adjRanges*int(i) + adjInControl + int(e.Type)
		}
		return out, in
	}
	for ei, e := range t.edges {
		t.edgeTo[ei] = InvalidNode
		if i, ok := t.byID[e.To]; ok {
			t.edgeTo[ei] = i
		}
		out, in := slots(ei, e)
		if out >= 0 {
			off[out+2]++
		}
		if in >= 0 {
			off[in+2]++
		}
	}
	for s := 2; s < len(off); s++ {
		off[s] += off[s-1]
	}
	t.adj = make([]EdgeIdx, off[len(off)-1])
	for ei, e := range t.edges {
		out, in := slots(ei, e)
		if out >= 0 {
			t.adj[off[out+1]] = EdgeIdx(ei)
			off[out+1]++
		}
		if in >= 0 {
			t.adj[off[in+1]] = EdgeIdx(ei)
			off[in+1]++
		}
	}
	t.off = off[:len(off)-1]
	return t
}

// Delta is what a biased view changes of its base view: the nodes and
// edges it adds, in the order it added them (one whose ID or key the base
// has replaces the base's), the base nodes and edges it removes, and the
// number of data edges of the view's nodes.
type Delta struct {
	AddedNodes   []*Node
	RemovedNodes []string
	AddedEdges   []*Edge
	RemovedEdges []EdgeKey
	DataEdges    int
}

// Patch returns the index of the view d makes of t's view; t must be a
// built topology. Every base node and edge the delta keeps keeps its
// index, the ones it removes or replaces become hidden, and the ones it
// adds are appended in their order, so the visible indices in ascending
// order are the view's order: the base's minus what the delta hides, then
// what it adds. The patch owns only what differs from t: the appended
// records and their targets, the lists of the appended nodes and of the
// base nodes an added or hidden edge touches, the targets of base edges
// into a replaced node, and a derived list the delta changes. It works
// those lists out from t's and the delta alone (appendLists). An empty
// delta is t itself.
func (t *Topology) Patch(d Delta) *Topology {
	if len(d.AddedNodes)+len(d.RemovedNodes)+len(d.AddedEdges)+len(d.RemovedEdges) == 0 && d.DataEdges == int(t.dataEdges) {
		return t
	}
	nb, eb := len(t.nodes), len(t.edges)
	p := &Topology{
		nodes: slices.Clone(d.AddedNodes), edges: slices.Clone(d.AddedEdges),
		start: t.start, end: t.end, dataEdges: int32(d.DataEdges),
		baseNodes: int32(nb), baseEdges: int32(eb), base: t,
	}
	set := func(bit int) {
		if p.bits == nil {
			p.bits = bitset.New(nb + eb + nb)
		}
		p.bits.Set(bit)
	}
	for _, id := range d.RemovedNodes {
		if i, ok := t.byID[id]; ok {
			set(int(i))
		}
	}
	for _, n := range p.nodes {
		if i, ok := t.byID[n.ID]; ok {
			set(int(i))
		}
	}
	for _, k := range d.RemovedEdges {
		if i, ok := t.EdgeIdxOf(k); ok {
			set(nb + int(i))
		}
	}
	for _, e := range p.edges {
		if i, ok := t.EdgeIdxOf(e.Key()); ok {
			set(nb + int(i))
		}
	}

	// The base nodes an added or hidden edge touches get lists of their
	// own, after the appended nodes' (appendLists).
	touch := func(id string) {
		if i, ok := t.byID[id]; ok && !p.Hidden(i) && !p.owns(i) {
			set(nb + eb + int(i))
			p.own = append(p.own, i)
		}
	}
	for bit := p.bits.Next(nb); bit >= 0 && bit < nb+eb; bit = p.bits.Next(bit + 1) {
		touch(t.edges[bit-nb].From)
		touch(t.edges[bit-nb].To)
	}
	for _, e := range p.edges {
		touch(e.From)
		touch(e.To)
	}
	slices.Sort(p.own)
	size := 2 * len(p.edges) // each appended edge sits in two lists; the base's part is at most the base's lists
	for k := range len(p.nodes) + len(p.own) {
		if i, ok := t.byID[p.slotID(k)]; ok {
			size += int(t.off[adjRanges*(i+1)] - t.off[adjRanges*i])
		}
	}
	p.off = make([]uint32, 1, adjRanges*(len(p.nodes)+len(p.own))+1)
	p.adj = make([]EdgeIdx, 0, size)
	for k := range len(p.nodes) + len(p.own) {
		p.appendLists(p.slotID(k))
	}

	p.edgeTo = make([]NodeIdx, len(p.edges))
	for k, e := range p.edges {
		p.edgeTo[k], _ = p.Idx(e.To)
	}
	if h := p.bits.Next(0); h >= 0 && h < nb { // a base edge into a replaced node targets its replacement
		for ei, to := range t.edgeTo {
			if to != InvalidNode && p.Hidden(to) && !p.EdgeHidden(EdgeIdx(ei)) {
				to, _ = p.Idx(t.nodes[to].ID)
				p.retarget = append(p.retarget, retarget{EdgeIdx(ei), to})
			}
		}
	}

	p.autoIdx = p.derived(t.autoIdx, (*Node).CanAutoExecute)
	p.manualIdx = p.derived(t.manualIdx, (*Node).manual)
	if p.Hidden(p.start) {
		p.start = InvalidNode
	}
	if p.Hidden(p.end) {
		p.end = InvalidNode
	}
	for k, n := range p.nodes {
		switch n.Type {
		case NodeStart:
			p.start = NodeIdx(nb + k)
		case NodeEnd:
			p.end = NodeIdx(nb + k)
		}
	}
	return p
}

// slotID returns the ID of the node in a patch's arena slot k: an
// appended node, then a base node the patch touches.
func (p *Topology) slotID(k int) string {
	if k < len(p.nodes) {
		return p.nodes[k].ID
	}
	return p.base.nodes[p.own[k-len(p.nodes)]].ID
}

// appendLists appends a patch's lists of one node to its arena, in range
// order. Each is the base's list of the node's ID (none for a node the
// base lacks) without the edges the patch hides, then the appended edges
// of the range's type and direction at the node, in delta order: the
// view's Edges order, since the kept base edges keep theirs and the
// appended ones follow.
func (p *Topology) appendLists(id string) {
	i, inBase := p.base.byID[id]
	for r := range adjRanges {
		if inBase {
			for _, ei := range p.base.At(i).list(r) {
				if !p.EdgeHidden(ei) {
					p.adj = append(p.adj, ei)
				}
			}
		}
		for k, e := range p.edges {
			if r < adjInControl && e.From == id && int(e.Type) == r-adjOutControl ||
				r >= adjInControl && e.To == id && int(e.Type) == r-adjInControl {
				p.adj = append(p.adj, EdgeIdx(int(p.baseEdges)+k))
			}
		}
		p.off = append(p.off, uint32(len(p.adj)))
	}
}

// derived returns a patch's form of one of its base's derived node lists:
// the base's entries it does not hide, then its appended nodes that
// qualify. It is the base's own list while the patch changes nothing of it.
func (p *Topology) derived(base []NodeIdx, qualifies func(*Node) bool) []NodeIdx {
	n := 0
	for _, i := range base {
		if !p.Hidden(i) {
			n++
		}
	}
	added := 0
	for _, node := range p.nodes {
		if qualifies(node) {
			added++
		}
	}
	if n == len(base) && added == 0 {
		return base
	}
	out := make([]NodeIdx, 0, n+added)
	for _, i := range base {
		if !p.Hidden(i) {
			out = append(out, i)
		}
	}
	for k, node := range p.nodes {
		if qualifies(node) {
			out = append(out, NodeIdx(int(p.baseNodes)+k))
		}
	}
	return out
}

// node returns the record of a node index.
func (t *Topology) node(i NodeIdx) *Node {
	if k := int(i) - int(t.baseNodes); k >= 0 {
		return t.nodes[k]
	}
	return t.base.nodes[i]
}

// Idx interns a node ID to its dense index.
func (t *Topology) Idx(id string) (NodeIdx, bool) {
	if t.base == nil {
		i, ok := t.byID[id]
		return i, ok
	}
	if i, ok := t.base.byID[id]; ok && !t.Hidden(i) {
		return i, true
	}
	for k, n := range t.nodes {
		if n.ID == id {
			return NodeIdx(int(t.baseNodes) + k), true
		}
	}
	return InvalidNode, false
}

// ID returns the node ID of a dense index. The index must be valid for
// this topology.
func (t *Topology) ID(i NodeIdx) string { return t.node(i).ID }

// At returns the handle of a dense index. The index must be valid for
// this topology and not hidden. A node has lists in the arena of a built
// topology, and in a patch's when the patch appended or touched it;
// otherwise its lists are its base's.
func (t *Topology) At(i NodeIdx) NodeTopology {
	if t.base == nil {
		return NodeTopology{t, t, i, int32(i)}
	}
	return t.patchAt(i)
}

// patchAt is At in a patch: a function of its own, so that At stays
// within the inliner's budget and costs a built topology one branch.
func (t *Topology) patchAt(i NodeIdx) NodeTopology {
	if s := int(i) - int(t.baseNodes); s >= 0 {
		return NodeTopology{t, t, i, int32(s)}
	}
	if t.owns(i) {
		k, _ := slices.BinarySearch(t.own, i)
		return NodeTopology{t, t, i, int32(len(t.nodes) + k)}
	}
	return NodeTopology{t, t.base, i, int32(i)}
}

// owns reports whether a base node has lists in a patch's arena.
func (t *Topology) owns(i NodeIdx) bool {
	return t.bits != nil && t.bits.Has(int(t.baseNodes)+int(t.baseEdges)+int(i))
}

// NumNodes returns the size of the node index space: every index below it
// names a node of the view unless Hidden.
func (t *Topology) NumNodes() int { return int(t.baseNodes) + len(t.nodes) }

// NumEdges returns the size of the edge index space: every index below it
// names an edge of the view unless EdgeHidden.
func (t *Topology) NumEdges() int { return int(t.baseEdges) + len(t.edges) }

// Hidden reports whether a node index names no node of the view: a base
// node a patch removes or replaces. A built topology hides none. Every
// walk over 0..NumNodes() skips the hidden indices.
func (t *Topology) Hidden(i NodeIdx) bool {
	return uint32(i) < uint32(t.baseNodes) && t.bits != nil && t.bits.Has(int(i))
}

// EdgeHidden is Hidden for an edge index: a base edge a patch removes or
// replaces.
func (t *Topology) EdgeHidden(i EdgeIdx) bool {
	return uint32(i) < uint32(t.baseEdges) && t.bits != nil && t.bits.Has(int(t.baseNodes)+int(i))
}

// NumDataEdges returns the number of data edges of the indexed nodes.
func (t *Topology) NumDataEdges() int { return int(t.dataEdges) }

// EdgeIdxOf interns an edge key to its dense index by scanning the source
// node's outgoing edges of the key's type — a handful in any schema, and
// the callers (a marking remap, a snapshot import, the keyed Marking
// accessors) are off the per-command path.
func (t *Topology) EdgeIdxOf(k EdgeKey) (EdgeIdx, bool) {
	from, ok := t.Idx(k.From)
	if !ok || k.Type > EdgeLoop {
		return 0, false
	}
	for _, ei := range t.At(from).list(adjOutControl + int(k.Type)) {
		if t.EdgeAt(ei).To == k.To {
			return ei, true
		}
	}
	return 0, false
}

// EdgeAt returns the edge record of a dense edge index.
func (t *Topology) EdgeAt(i EdgeIdx) *Edge {
	if k := int(i) - int(t.baseEdges); k >= 0 {
		return t.edges[k]
	}
	return t.base.edges[i]
}

// EdgeTarget returns the interned target node of a dense edge index
// (InvalidNode if the target is not part of the view).
func (t *Topology) EdgeTarget(i EdgeIdx) NodeIdx {
	if k := int(i) - int(t.baseEdges); k >= 0 {
		return t.edgeTo[k]
	}
	to := t.base.edgeTo[i]
	if t.Hidden(to) { // a visible base edge into a hidden node is into a replaced one
		for _, r := range t.retarget {
			if r.edge == i {
				return r.to
			}
		}
	}
	return to
}

// StartIdx returns the interned start node (InvalidNode if absent).
func (t *Topology) StartIdx() NodeIdx { return t.start }

// EndIdx returns the interned end node (InvalidNode if absent).
func (t *Topology) EndIdx() NodeIdx { return t.end }

// AutoExecutableIdx returns the nodes the engine may start and complete
// without user interaction (Node.CanAutoExecute), in view order. The
// execution cascade scans this list instead of all nodes.
func (t *Topology) AutoExecutableIdx() []NodeIdx { return t.autoIdx }

// ManualActivitiesIdx returns the user-worked activity nodes in view
// order; worklist reconciliation scans this list instead of all nodes.
func (t *Topology) ManualActivitiesIdx() []NodeIdx { return t.manualIdx }

// SharedPrefix returns how many leading node and edge indices two
// topologies assign alike: their common base's counts when each is that
// base or a patch of it, otherwise none. Below the counts an index names
// the same node or edge in both, unless one of them hides it.
func SharedPrefix(a, b *Topology) (nodes, edges int) {
	if ra, rb := a.root(), b.root(); ra == rb {
		return len(ra.nodes), len(ra.edges)
	}
	return 0, 0
}

// root returns the built topology a topology is or patches.
func (t *Topology) root() *Topology {
	if t.base != nil {
		return t.base
	}
	return t
}

// SameNodes reports whether two topologies show the same node IDs at the
// same indices and hide the same ones, so state by NodeIdx carries over
// one to one. The ID comparisons are cheap: views share their ID string
// backing, so equality short-circuits on the data pointer.
func SameNodes(a, b *Topology) bool {
	if a.NumNodes() != b.NumNodes() {
		return false
	}
	for i := range NodeIdx(a.NumNodes()) {
		if h := a.Hidden(i); h != b.Hidden(i) || !h && a.ID(i) != b.ID(i) {
			return false
		}
	}
	return true
}

// SameEdges is SameNodes for the edge keys.
func SameEdges(a, b *Topology) bool {
	if a.NumEdges() != b.NumEdges() {
		return false
	}
	for i := range EdgeIdx(a.NumEdges()) {
		if h := a.EdgeHidden(i); h != b.EdgeHidden(i) || !h && a.EdgeAt(i).Key() != b.EdgeAt(i).Key() {
			return false
		}
	}
	return true
}

// ApproxBytes returns the memory the index holds beside the nodes and
// edges it points to: the record, the ID map, and every array from the
// capacity it holds. A patch counts what it owns, not what it shares with
// its base.
func (t *Topology) ApproxBytes() int {
	total := int(unsafe.Sizeof(*t)) + 8*(cap(t.nodes)+cap(t.edges)+cap(t.bits)+cap(t.retarget)) +
		4*(cap(t.edgeTo)+cap(t.off)+cap(t.adj)+cap(t.own))
	if t.byID != nil {
		total += StringMapBytes(len(t.byID))
	}
	return total + t.listBytes(t.autoIdx, t.root().autoIdx) + t.listBytes(t.manualIdx, t.root().manualIdx)
}

// listBytes returns what a derived list holds, none in a patch that shares
// its base's.
func (t *Topology) listBytes(list, base []NodeIdx) int {
	if t.base != nil && unsafe.SliceData(list) == unsafe.SliceData(base) {
		return 0
	}
	return 4 * cap(list)
}

// StringMapBytes returns what a map keyed by strings, with values of up to
// a word, holds on the heap at the given number of entries: a swiss table
// of groups of eight 24-byte slots — one group while eight entries fit,
// doubled past a load of 7/8 after that — at the 240 B a group measured
// with the table's own records.
func StringMapBytes(entries int) int {
	groups := 1
	for entries > 8 && 7*groups < entries {
		groups *= 2
	}
	return 24 + 240*groups
}
