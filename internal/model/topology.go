package model

import (
	"slices"
	"unsafe"
)

// NodeIdx is the dense interned index of a node within one Topology. The
// index of a node is its position in SchemaView.NodeIDs order, so indices
// are contiguous in [0, NumNodes()) and array lookups replace string-keyed
// map traffic in every per-event hot loop (marking evaluation, compliance
// replay, state adaptation).
//
// A NodeIdx is only meaningful relative to the Topology that assigned it.
// Structural mutations produce a new Topology with a fresh assignment —
// consumers that hold state indexed by NodeIdx (internal/state.Marking)
// must remap when the topology pointer changes.
type NodeIdx int32

// InvalidNode is the sentinel for "not part of the indexed view".
const InvalidNode NodeIdx = -1

// EdgeIdx is the dense interned index of an edge within one Topology: the
// edge's position in SchemaView.Edges order. Like NodeIdx it is valid only
// for the Topology that assigned it.
type EdgeIdx int32

// The typed adjacency ranges of one node, in arena order. The three out
// ranges come first and in EdgeType order, so adjOut+EdgeType names the out
// range of an edge type.
const (
	adjOutControl = iota
	adjOutSync
	adjOutLoop
	adjInControl
	adjInSync
	adjRanges
)

// NodeTopology is the handle of one node of a Topology: the node record
// and its incident edges split by edge type, each list a sub-slice of the
// topology's one adjacency arena. The marking evaluator (internal/state)
// consults these lists in its inner loop instead of filtering
// InEdges/OutEdges on every visit, so the hot path allocates nothing.
//
// The lists hold dense edge indices; Topology.EdgeAt turns one into the
// edge record (selection code, endpoint IDs). They alias the arena and
// must not be mutated. Incoming loop edges are not indexed: nothing reads
// them.
type NodeTopology struct {
	t *Topology
	i NodeIdx
}

// Node returns the node record itself: the *Node the view's Node(id)
// returns.
func (nt NodeTopology) Node() *Node { return nt.t.nodes[nt.i] }

// OutControlIdx returns the outgoing control edges.
func (nt NodeTopology) OutControlIdx() []EdgeIdx { return nt.t.adjOf(nt.i, adjOutControl) }

// OutSyncIdx returns the outgoing sync edges.
func (nt NodeTopology) OutSyncIdx() []EdgeIdx { return nt.t.adjOf(nt.i, adjOutSync) }

// OutLoopIdx returns the outgoing loop back edges.
func (nt NodeTopology) OutLoopIdx() []EdgeIdx { return nt.t.adjOf(nt.i, adjOutLoop) }

// InControlIdx returns the incoming control edges.
func (nt NodeTopology) InControlIdx() []EdgeIdx { return nt.t.adjOf(nt.i, adjInControl) }

// InSyncIdx returns the incoming sync edges.
func (nt NodeTopology) InSyncIdx() []EdgeIdx { return nt.t.adjOf(nt.i, adjInSync) }

// Topology is the precomputed topology index of a schema view: per-node
// typed adjacency plus derived node lists the engine's hot paths scan
// (auto-executable nodes for the execution cascade, manual activities for
// worklist reconciliation). It doubles as the view's node/edge interner:
// every node receives a dense NodeIdx and every edge a dense EdgeIdx, and
// the int-indexed accessors (At, EdgeTarget, EdgeStateAt consumers) let
// the replay stack run map-free between package boundaries.
//
// The adjacency is one arena: adj holds every typed list of every node
// back to back, and the list of node i's range r is
// adj[off[adjRanges*i+r]:off[adjRanges*i+r+1]] — one offset per list
// instead of a slice header and an allocation each.
//
// A Topology is an immutable snapshot of the view it was built from. Views
// cache it (see Schema.Topology and Overlay.Topology in internal/storage)
// and drop the cache on every structural mutation, so holding a *Topology
// across a mutation observes stale data — re-fetch it from the view
// instead. Indices assigned by different Topology values are unrelated;
// remap through the string IDs.
type Topology struct {
	byID  map[string]NodeIdx
	nodes []*Node // dense by NodeIdx (NodeIDs order)

	edges  []*Edge   // dense by EdgeIdx (Edges order)
	edgeTo []NodeIdx // dense by EdgeIdx: interned target node

	off []uint32  // adjRanges*NumNodes()+1 ascending arena offsets
	adj []EdgeIdx // the arena; each list in Edges order

	autoIdx   []NodeIdx // CanAutoExecute nodes in view order
	manualIdx []NodeIdx // manual (user-worked) activities in view order

	start     NodeIdx
	end       NodeIdx
	dataEdges int32 // of the indexed nodes
}

// BuildTopology computes the topology index of a view. Callers should
// prefer SchemaView.Topology, which returns the view's cached index.
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
		if n.Type == NodeActivity && !n.Auto {
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
		if i := t.edgeTo[ei]; i != InvalidNode && e.Type <= EdgeSync {
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

func (t *Topology) adjOf(i NodeIdx, r int) []EdgeIdx {
	s := adjRanges*int(i) + r
	return t.adj[t.off[s]:t.off[s+1]:t.off[s+1]]
}

// Idx interns a node ID to its dense index.
func (t *Topology) Idx(id string) (NodeIdx, bool) {
	i, ok := t.byID[id]
	return i, ok
}

// ID returns the node ID of a dense index. The index must be valid for
// this topology.
func (t *Topology) ID(i NodeIdx) string { return t.nodes[i].ID }

// At returns the handle of a dense index. The index must be valid for
// this topology.
func (t *Topology) At(i NodeIdx) NodeTopology { return NodeTopology{t, i} }

// NumNodes returns the number of indexed nodes.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumEdges returns the number of indexed edges.
func (t *Topology) NumEdges() int { return len(t.edges) }

// NumDataEdges returns the number of data edges of the indexed nodes.
func (t *Topology) NumDataEdges() int { return int(t.dataEdges) }

// EdgeIdxOf interns an edge key to its dense index by scanning the source
// node's outgoing edges of the key's type — a handful in any schema, and
// the callers (a marking remap, a snapshot import, the keyed Marking
// accessors) are off the per-command path.
func (t *Topology) EdgeIdxOf(k EdgeKey) (EdgeIdx, bool) {
	from, ok := t.byID[k.From]
	if !ok || k.Type > EdgeLoop {
		return 0, false
	}
	for _, ei := range t.adjOf(from, adjOutControl+int(k.Type)) {
		if t.edges[ei].To == k.To {
			return ei, true
		}
	}
	return 0, false
}

// EdgeAt returns the edge record of a dense edge index.
func (t *Topology) EdgeAt(i EdgeIdx) *Edge { return t.edges[i] }

// EdgeTarget returns the interned target node of a dense edge index
// (InvalidNode if the target is not part of the view).
func (t *Topology) EdgeTarget(i EdgeIdx) NodeIdx { return t.edgeTo[i] }

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

// ApproxBytes returns the memory the index holds beside the nodes and
// edges it points to: the record, the ID map, and every array from the
// capacity it holds.
func (t *Topology) ApproxBytes() int {
	return int(unsafe.Sizeof(*t)) + StringMapBytes(len(t.byID)) +
		8*(cap(t.nodes)+cap(t.edges)) +
		4*(cap(t.edgeTo)+cap(t.off)+cap(t.adj)+cap(t.autoIdx)+cap(t.manualIdx))
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
