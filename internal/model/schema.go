package model

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"unsafe"
)

// Schema is a buildtime process schema: the template from which process
// instances are created. It implements SchemaView and MutableView.
//
// A Schema is not safe for concurrent mutation; deployed schemas are
// treated as immutable by convention (the evolution manager clones before
// changing), so concurrent reads are safe.
type Schema struct {
	id       string
	typeName string
	version  int

	nodes     map[string]*Node
	nodeOrder []string

	edges   []*Edge
	edgeSet map[EdgeKey]*Edge

	data      map[string]*DataElement
	dataOrder []string

	dataEdges   []*DataEdge
	dataEdgeSet map[DataEdgeKey]*DataEdge
	edgesByAct  map[string][]*DataEdge

	startID string
	endID   string

	// topo caches the topology index. Deployed schemas are immutable by
	// convention but read from many goroutines (e.g. all instances of a
	// version during migration), so the cache slot is atomic: concurrent
	// readers may race to build the index, which is idempotent, and every
	// structural mutation clears the slot. The slot lives behind a plain
	// pointer so Schema values stay assignable (UnmarshalJSON replaces the
	// whole struct).
	topo *atomic.Pointer[Topology]
}

// NewSchema creates an empty schema for the given process type and version.
func NewSchema(id, typeName string, version int) *Schema {
	return &Schema{
		id:          id,
		typeName:    typeName,
		version:     version,
		nodes:       make(map[string]*Node),
		edgeSet:     make(map[EdgeKey]*Edge),
		data:        make(map[string]*DataElement),
		dataEdgeSet: make(map[DataEdgeKey]*DataEdge),
		edgesByAct:  make(map[string][]*DataEdge),
		topo:        new(atomic.Pointer[Topology]),
	}
}

// SchemaID implements SchemaView.
func (s *Schema) SchemaID() string { return s.id }

// TypeName implements SchemaView.
func (s *Schema) TypeName() string { return s.typeName }

// Version implements SchemaView.
func (s *Schema) Version() int { return s.version }

// SetVersion stamps the schema with a new version number (used by the
// evolution manager when deriving a successor version).
func (s *Schema) SetVersion(v int) { s.version = v }

// SetSchemaID renames the schema (used when cloning into a new version).
func (s *Schema) SetSchemaID(id string) { s.id = id }

// NodeIDs implements SchemaView.
func (s *Schema) NodeIDs() []string { return s.nodeOrder }

// Node implements SchemaView.
func (s *Schema) Node(id string) (*Node, bool) {
	n, ok := s.nodes[id]
	return n, ok
}

// Nodes returns all nodes in insertion order.
func (s *Schema) Nodes() []*Node {
	ns := make([]*Node, 0, len(s.nodeOrder))
	for _, id := range s.nodeOrder {
		ns = append(ns, s.nodes[id])
	}
	return ns
}

// Edges implements SchemaView.
func (s *Schema) Edges() []*Edge { return s.edges }

// HasEdge implements SchemaView.
func (s *Schema) HasEdge(k EdgeKey) bool {
	_, ok := s.edgeSet[k]
	return ok
}

// Topology implements SchemaView: it returns the cached topology index,
// building it on first use after a structural mutation.
func (s *Schema) Topology() *Topology {
	if t := s.topo.Load(); t != nil {
		return t
	}
	t := BuildTopology(s)
	s.topo.Store(t)
	return t
}

// invalidateTopology drops the cached topology index; every structural
// mutation and every data-edge change calls it.
func (s *Schema) invalidateTopology() { s.topo.Store(nil) }

// StartID implements SchemaView.
func (s *Schema) StartID() string { return s.startID }

// EndID implements SchemaView.
func (s *Schema) EndID() string { return s.endID }

// DataElements implements SchemaView.
func (s *Schema) DataElements() []*DataElement {
	ds := make([]*DataElement, 0, len(s.dataOrder))
	for _, id := range s.dataOrder {
		ds = append(ds, s.data[id])
	}
	return ds
}

// DataElement implements SchemaView.
func (s *Schema) DataElement(id string) (*DataElement, bool) {
	d, ok := s.data[id]
	return d, ok
}

// DataEdges implements SchemaView.
func (s *Schema) DataEdges() []*DataEdge { return s.dataEdges }

// DataEdgesOf implements SchemaView.
func (s *Schema) DataEdgesOf(activity string) []*DataEdge {
	return s.edgesByAct[activity]
}

// AddNode inserts a node. The node ID must be unique within the schema.
func (s *Schema) AddNode(n *Node) error {
	if n == nil || n.ID == "" {
		return fmt.Errorf("model: add node: empty node ID")
	}
	if _, dup := s.nodes[n.ID]; dup {
		return fmt.Errorf("model: add node %q: duplicate ID", n.ID)
	}
	switch n.Type {
	case NodeStart:
		if s.startID != "" {
			return fmt.Errorf("model: add node %q: schema already has start node %q", n.ID, s.startID)
		}
		s.startID = n.ID
	case NodeEnd:
		if s.endID != "" {
			return fmt.Errorf("model: add node %q: schema already has end node %q", n.ID, s.endID)
		}
		s.endID = n.ID
	}
	s.nodes[n.ID] = n
	s.nodeOrder = append(s.nodeOrder, n.ID)
	s.invalidateTopology()
	return nil
}

// ReplaceNode swaps the attributes of an existing node. The node type must
// not change (that would alter the block structure behind the verifier's
// back).
func (s *Schema) ReplaceNode(n *Node) error {
	if n == nil || n.ID == "" {
		return fmt.Errorf("model: replace node: empty node ID")
	}
	old, ok := s.nodes[n.ID]
	if !ok {
		return fmt.Errorf("model: replace node %q: not found", n.ID)
	}
	if old.Type != n.Type {
		return fmt.Errorf("model: replace node %q: type change %s -> %s not allowed", n.ID, old.Type, n.Type)
	}
	s.nodes[n.ID] = n
	s.invalidateTopology()
	return nil
}

// RemoveNode deletes a node. All incident edges and data edges must have
// been removed first; this forces change operations to manage rewiring
// explicitly.
func (s *Schema) RemoveNode(id string) error {
	if _, ok := s.nodes[id]; !ok {
		return fmt.Errorf("model: remove node %q: not found", id)
	}
	if slices.ContainsFunc(s.edges, func(e *Edge) bool { return e.From == id || e.To == id }) {
		return fmt.Errorf("model: remove node %q: incident edges remain", id)
	}
	if len(s.edgesByAct[id]) > 0 {
		return fmt.Errorf("model: remove node %q: data edges remain", id)
	}
	if s.startID == id {
		s.startID = ""
	}
	if s.endID == id {
		s.endID = ""
	}
	delete(s.nodes, id)
	s.nodeOrder = remove(s.nodeOrder, id)
	delete(s.edgesByAct, id)
	s.invalidateTopology()
	return nil
}

// AddEdge inserts an edge. Both endpoints must exist, self-edges are
// rejected, and at most one edge per (from, to, type) key may exist.
func (s *Schema) AddEdge(e *Edge) error {
	if e == nil {
		return fmt.Errorf("model: add edge: nil edge")
	}
	if e.From == e.To {
		return fmt.Errorf("model: add edge %s: self edge", e)
	}
	if _, ok := s.nodes[e.From]; !ok {
		return fmt.Errorf("model: add edge %s: unknown source node %q", e, e.From)
	}
	if _, ok := s.nodes[e.To]; !ok {
		return fmt.Errorf("model: add edge %s: unknown target node %q", e, e.To)
	}
	k := e.Key()
	if _, dup := s.edgeSet[k]; dup {
		return fmt.Errorf("model: add edge %s: duplicate edge", e)
	}
	s.edges = append(s.edges, e)
	s.edgeSet[k] = e
	s.invalidateTopology()
	return nil
}

// RemoveEdge deletes the edge identified by the key.
func (s *Schema) RemoveEdge(k EdgeKey) error {
	e, ok := s.edgeSet[k]
	if !ok {
		return fmt.Errorf("model: remove edge %s: not found", k)
	}
	delete(s.edgeSet, k)
	s.edges = remove(s.edges, e)
	s.invalidateTopology()
	return nil
}

// AddDataElement inserts a data element with a schema-unique ID.
func (s *Schema) AddDataElement(d *DataElement) error {
	if d == nil || d.ID == "" {
		return fmt.Errorf("model: add data element: empty ID")
	}
	if _, dup := s.data[d.ID]; dup {
		return fmt.Errorf("model: add data element %q: duplicate ID", d.ID)
	}
	s.data[d.ID] = d
	s.dataOrder = append(s.dataOrder, d.ID)
	return nil
}

// RemoveDataElement deletes a data element. All data edges referencing it
// must have been removed first.
func (s *Schema) RemoveDataElement(id string) error {
	if _, ok := s.data[id]; !ok {
		return fmt.Errorf("model: remove data element %q: not found", id)
	}
	for _, de := range s.dataEdges {
		if de.Element == id {
			return fmt.Errorf("model: remove data element %q: data edge %s remains", id, de)
		}
	}
	delete(s.data, id)
	s.dataOrder = remove(s.dataOrder, id)
	return nil
}

// AddDataEdge inserts a data edge. Activity and element must exist.
func (s *Schema) AddDataEdge(d *DataEdge) error {
	if d == nil {
		return fmt.Errorf("model: add data edge: nil edge")
	}
	if d.Parameter == "" {
		return fmt.Errorf("model: add data edge: empty parameter name")
	}
	if _, ok := s.nodes[d.Activity]; !ok {
		return fmt.Errorf("model: add data edge %s: unknown activity %q", d, d.Activity)
	}
	if _, ok := s.data[d.Element]; !ok {
		return fmt.Errorf("model: add data edge %s: unknown data element %q", d, d.Element)
	}
	k := d.Key()
	if _, dup := s.dataEdgeSet[k]; dup {
		return fmt.Errorf("model: add data edge %s: duplicate edge", d)
	}
	s.dataEdges = append(s.dataEdges, d)
	s.dataEdgeSet[k] = d
	s.edgesByAct[d.Activity] = append(s.edgesByAct[d.Activity], d)
	s.invalidateTopology() // it counts the data edges
	return nil
}

// RemoveDataEdge deletes the data edge identified by the key.
func (s *Schema) RemoveDataEdge(k DataEdgeKey) error {
	d, ok := s.dataEdgeSet[k]
	if !ok {
		return fmt.Errorf("model: remove data edge %v: not found", k)
	}
	delete(s.dataEdgeSet, k)
	s.dataEdges = remove(s.dataEdges, d)
	s.edgesByAct[d.Activity] = remove(s.edgesByAct[d.Activity], d)
	s.invalidateTopology()
	return nil
}

// Clone returns a deep copy of the schema. Node, edge, and data structs are
// copied, so mutating the clone never affects the original.
func (s *Schema) Clone() *Schema {
	c := NewSchema(s.id, s.typeName, s.version)
	for _, id := range s.nodeOrder {
		if err := c.AddNode(s.nodes[id].Clone()); err != nil {
			panic(fmt.Sprintf("model: clone node: %v", err))
		}
	}
	for _, e := range s.edges {
		if err := c.AddEdge(e.Clone()); err != nil {
			panic(fmt.Sprintf("model: clone edge: %v", err))
		}
	}
	for _, id := range s.dataOrder {
		if err := c.AddDataElement(s.data[id].Clone()); err != nil {
			panic(fmt.Sprintf("model: clone data element: %v", err))
		}
	}
	for _, de := range s.dataEdges {
		if err := c.AddDataEdge(de.Clone()); err != nil {
			panic(fmt.Sprintf("model: clone data edge: %v", err))
		}
	}
	return c
}

// ApproxBytes estimates the in-memory footprint of the schema. It is used
// by the Fig. 2 storage experiments to compare representations; the
// estimate counts struct sizes and string payloads, not allocator overhead.
func (s *Schema) ApproxBytes() int {
	total := 0
	for _, n := range s.nodes {
		total += nodeApproxBytes(n)
	}
	for _, e := range s.edges {
		total += edgeApproxBytes(e)
	}
	for _, d := range s.data {
		total += 16 + len(d.ID) + len(d.Name)
	}
	for _, de := range s.dataEdges {
		total += 24 + len(de.Activity) + len(de.Element) + len(de.Parameter)
	}
	// Index structures: the order slices.
	total += 16 * (len(s.nodeOrder) + len(s.dataOrder))
	return total
}

func nodeApproxBytes(n *Node) int {
	return int(unsafe.Sizeof(*n)) + len(n.ID) + len(n.Name) + len(n.Role) + len(n.Template) + len(n.DecisionElement)
}

func edgeApproxBytes(e *Edge) int {
	return 24 + len(e.From) + len(e.To)
}

// Equal reports whether two schemas have identical structure (nodes,
// edges, data elements, data edges), ignoring ID/type/version metadata.
// It is used by tests to validate that the overlay materialization matches
// a directly-changed schema copy.
func Equal(a, b SchemaView) bool {
	an, bn := append([]string(nil), a.NodeIDs()...), append([]string(nil), b.NodeIDs()...)
	if len(an) != len(bn) {
		return false
	}
	sort.Strings(an)
	sort.Strings(bn)
	for i := range an {
		if an[i] != bn[i] {
			return false
		}
		na, _ := a.Node(an[i])
		nb, _ := b.Node(bn[i])
		if *na != *nb {
			return false
		}
	}
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		return false
	}
	for _, e := range ae {
		if !b.HasEdge(e.Key()) {
			return false
		}
	}
	ad, bd := a.DataElements(), b.DataElements()
	if len(ad) != len(bd) {
		return false
	}
	for _, d := range ad {
		od, ok := b.DataElement(d.ID)
		if !ok || *od != *d {
			return false
		}
	}
	ade, bde := a.DataEdges(), b.DataEdges()
	if len(ade) != len(bde) {
		return false
	}
	keys := make(map[DataEdgeKey]bool, len(bde))
	for _, de := range bde {
		keys[de.Key()] = true
	}
	for _, de := range ade {
		if !keys[de.Key()] {
			return false
		}
	}
	return true
}

// remove deletes the first occurrence of x, keeping the order of the rest.
func remove[T comparable](xs []T, x T) []T {
	if i := slices.Index(xs, x); i >= 0 {
		return append(xs[:i], xs[i+1:]...)
	}
	return xs
}

var (
	_ SchemaView  = (*Schema)(nil)
	_ MutableView = (*Schema)(nil)
)
