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
	// OutEdges returns all edges (of every type) leaving the node.
	OutEdges(id string) []*Edge
	// InEdges returns all edges (of every type) entering the node.
	InEdges(id string) []*Edge
	// HasEdge reports whether the edge identified by the key exists.
	HasEdge(k EdgeKey) bool

	// StartID returns the ID of the unique start node ("" if absent).
	StartID() string
	// EndID returns the ID of the unique end node ("" if absent).
	EndID() string

	// Topology returns the precomputed topology index of the view.
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

// ControlSuccs returns the targets of outgoing control edges of the node,
// in edge order.
func ControlSuccs(v SchemaView, id string) []string {
	return edgeTargets(v.OutEdges(id), EdgeControl, true)
}

// ControlPreds returns the sources of incoming control edges of the node.
func ControlPreds(v SchemaView, id string) []string {
	return edgeTargets(v.InEdges(id), EdgeControl, false)
}

// SyncSuccs returns the targets of outgoing sync edges of the node.
func SyncSuccs(v SchemaView, id string) []string {
	return edgeTargets(v.OutEdges(id), EdgeSync, true)
}

// SyncPreds returns the sources of incoming sync edges of the node.
func SyncPreds(v SchemaView, id string) []string {
	return edgeTargets(v.InEdges(id), EdgeSync, false)
}

func edgeTargets(edges []*Edge, t EdgeType, out bool) []string {
	var ids []string
	for _, e := range edges {
		if e.Type != t {
			continue
		}
		if out {
			ids = append(ids, e.To)
		} else {
			ids = append(ids, e.From)
		}
	}
	return ids
}

// OutControlEdges returns the outgoing control edges of the node.
func OutControlEdges(v SchemaView, id string) []*Edge {
	var es []*Edge
	for _, e := range v.OutEdges(id) {
		if e.Type == EdgeControl {
			es = append(es, e)
		}
	}
	return es
}

// InControlEdges returns the incoming control edges of the node.
func InControlEdges(v SchemaView, id string) []*Edge {
	var es []*Edge
	for _, e := range v.InEdges(id) {
		if e.Type == EdgeControl {
			es = append(es, e)
		}
	}
	return es
}
