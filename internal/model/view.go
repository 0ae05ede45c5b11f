package model

// SchemaView is the read-only interface all ADEPT2 components operate on.
// Both *Schema and the substitution-block overlay of biased instances
// (internal/storage) implement it; this indirection realizes the hybrid
// storage representation of Fig. 2 of the paper.
//
// Implementations must return stable, deterministic orders from the
// enumeration methods, and callers must not mutate returned values.
type SchemaView interface {
	// SchemaID returns the unique identifier of the (possibly overlaid)
	// schema.
	SchemaID() string
	// TypeName returns the process type the schema belongs to.
	TypeName() string
	// Version returns the schema version within its process type.
	Version() int

	// NodeIDs enumerates all node IDs in a stable order.
	NodeIDs() []string
	// Node looks up a node by ID.
	Node(id string) (*Node, bool)
	// Edges enumerates all edges in a stable order.
	Edges() []*Edge
	// HasEdge reports whether the edge identified by the key exists.
	HasEdge(k EdgeKey) bool

	// StartID returns the ID of the unique start node ("" if absent).
	StartID() string
	// EndID returns the ID of the unique end node ("" if absent).
	EndID() string

	// Topology returns the precomputed topology index of the view, its only
	// adjacency: which edges touch a node is read from its typed lists.
	// Implementations cache the index and invalidate it on structural
	// mutation; the returned value is immutable and must not be held
	// across mutations of the view.
	Topology() *Topology

	// DataElements enumerates all data elements in a stable order.
	DataElements() []*DataElement
	// DataElement looks up a data element by ID.
	DataElement(id string) (*DataElement, bool)
	// DataEdges enumerates all data edges in a stable order.
	DataEdges() []*DataEdge
	// DataEdgesOf returns the data edges attached to an activity.
	DataEdgesOf(activity string) []*DataEdge
}

// MutableView extends SchemaView with the mutation operations the change
// framework needs. *Schema implements it directly; the storage overlay
// implements it by recording deltas against its base schema.
type MutableView interface {
	SchemaView

	AddNode(n *Node) error
	// ReplaceNode swaps the attributes of an existing node (same ID, same
	// type); attribute-level change operations such as staff re-assignment
	// use it.
	ReplaceNode(n *Node) error
	RemoveNode(id string) error
	AddEdge(e *Edge) error
	RemoveEdge(k EdgeKey) error
	AddDataElement(d *DataElement) error
	RemoveDataElement(id string) error
	AddDataEdge(d *DataEdge) error
	RemoveDataEdge(k DataEdgeKey) error
}

// OutControlEdges returns the node's outgoing control edges, in edge
// order, in a slice of the caller's: a change operation gathers them
// before it mutates the view.
func OutControlEdges(v SchemaView, id string) []*Edge {
	return edgesOf(v, id, adjOutControl, adjOutControl+1)
}

// InControlEdges returns the node's incoming control edges, like
// OutControlEdges.
func InControlEdges(v SchemaView, id string) []*Edge {
	return edgesOf(v, id, adjInControl, adjInControl+1)
}

// IncidentEdges returns every edge that touches the node, the outgoing
// ones first, each direction by type in edge order, in a slice of the
// caller's.
func IncidentEdges(v SchemaView, id string) []*Edge { return edgesOf(v, id, 0, adjRanges) }

// edgesOf returns the records of the node's lists of ranges [from, to) in
// the view's index; none for a node the view lacks.
func edgesOf(v SchemaView, id string, from, to int) []*Edge {
	t := v.Topology()
	i, ok := t.Idx(id)
	if !ok {
		return nil
	}
	var es []*Edge
	for r := from; r < to; r++ {
		for _, ei := range t.At(i).list(r) {
			es = append(es, t.EdgeAt(ei))
		}
	}
	return es
}
