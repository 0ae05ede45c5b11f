package storage

import (
	"fmt"
	"slices"
	"unsafe"

	"adept2/internal/model"
)

// Overlay is the substitution block of one biased instance: the minimal
// delta (added/removed nodes, edges, data elements, data edges) applied
// over an immutable base schema. It implements model.SchemaView and
// model.MutableView, so the engine, the verifier, and the compliance
// checker operate on it exactly as on a plain schema — without ever
// materializing a full copy.
//
// The delta is a handful of entries, so it is kept in slices, made on
// first use and searched linearly. Beside it the overlay keeps the view's
// data-edge list of every activity the delta touches (one that gained or
// lost a data edge; every other reads the base's own list) and the view's
// topology index, a patch of the base's (model.Topology.Patch) made from
// the base's index and the delta alone. The index is the view's only
// adjacency: the overlay keeps no edge list of a node.
type Overlay struct {
	base *model.Schema

	// The delta, each list in the order its entries were made. An added
	// entry hides the base's entry of the same key.
	addedNodes       []*model.Node
	removedNodes     []string
	addedEdges       []*model.Edge
	removedEdges     []model.EdgeKey
	addedData        []*model.DataElement
	removedData      []string
	addedDataEdges   []*model.DataEdge
	removedDataEdges []model.DataEdgeKey

	// The view's data-edge lists of the touched activities, each replaced
	// whole by the mutation that touches the activity.
	deOf []touched

	topo *model.Topology // nil after a structural or data-edge mutation
}

// touched is the view's data-edge list of one activity the delta touches.
type touched struct {
	id   string
	list []*model.DataEdge
}

// overlaid builds the view's form of one of the base's lists: the base's
// entries the delta does not hide, then the delta's own entries that
// belong to the list (all of them if belongs is nil) in the order they
// were added.
func overlaid[T any](base []T, hidden func(T) bool, added []T, belongs func(T) bool) []T {
	out := make([]T, 0, len(base)+len(added))
	for _, x := range base {
		if !hidden(x) {
			out = append(out, x)
		}
	}
	for _, x := range added {
		if belongs == nil || belongs(x) {
			out = append(out, x)
		}
	}
	return out
}

// whole returns a whole-view list, built per call: the base's own, capped,
// while the delta neither removes nor adds an entry of the kind.
func whole[T any](base []T, removed int, hidden func(T) bool, added []T) []T {
	if removed == 0 && len(added) == 0 {
		return base[:len(base):len(base)]
	}
	return overlaid(base, hidden, added, nil)
}

// NewOverlay creates an empty overlay over the base schema.
func NewOverlay(base *model.Schema) *Overlay { return &Overlay{base: base} }

// --- SchemaView ---

// SchemaID implements model.SchemaView.
func (o *Overlay) SchemaID() string { return o.base.SchemaID() + "+bias" }

// TypeName implements model.SchemaView.
func (o *Overlay) TypeName() string { return o.base.TypeName() }

// Version implements model.SchemaView.
func (o *Overlay) Version() int { return o.base.Version() }

func (o *Overlay) addedNode(id string) int {
	return slices.IndexFunc(o.addedNodes, func(n *model.Node) bool { return n.ID == id })
}

func (o *Overlay) addedEdge(k model.EdgeKey) int {
	return slices.IndexFunc(o.addedEdges, func(e *model.Edge) bool { return e.Key() == k })
}

func (o *Overlay) addedDataElement(id string) int {
	return slices.IndexFunc(o.addedData, func(d *model.DataElement) bool { return d.ID == id })
}

func (o *Overlay) addedDataEdge(k model.DataEdgeKey) int {
	return slices.IndexFunc(o.addedDataEdges, func(d *model.DataEdge) bool { return d.Key() == k })
}

func (o *Overlay) hidesNode(id string) bool {
	return slices.Contains(o.removedNodes, id) || o.addedNode(id) >= 0
}

func (o *Overlay) hidesEdge(e *model.Edge) bool {
	return slices.Contains(o.removedEdges, e.Key()) || o.addedEdge(e.Key()) >= 0
}

func (o *Overlay) hidesDataElement(d *model.DataElement) bool {
	return slices.Contains(o.removedData, d.ID) || o.addedDataElement(d.ID) >= 0
}

func (o *Overlay) hidesDataEdge(d *model.DataEdge) bool {
	return slices.Contains(o.removedDataEdges, d.Key()) || o.addedDataEdge(d.Key()) >= 0
}

// NodeIDs implements model.SchemaView.
func (o *Overlay) NodeIDs() []string {
	added := make([]string, len(o.addedNodes))
	for i, n := range o.addedNodes {
		added[i] = n.ID
	}
	return whole(o.base.NodeIDs(), len(o.removedNodes), o.hidesNode, added)
}

// Node implements model.SchemaView.
func (o *Overlay) Node(id string) (*model.Node, bool) {
	if i := o.addedNode(id); i >= 0 {
		return o.addedNodes[i], true
	}
	if slices.Contains(o.removedNodes, id) {
		return nil, false
	}
	return o.base.Node(id)
}

// Edges implements model.SchemaView.
func (o *Overlay) Edges() []*model.Edge {
	return whole(o.base.Edges(), len(o.removedEdges), o.hidesEdge, o.addedEdges)
}

// HasEdge implements model.SchemaView.
func (o *Overlay) HasEdge(k model.EdgeKey) bool {
	if o.addedEdge(k) >= 0 {
		return true
	}
	if slices.Contains(o.removedEdges, k) {
		return false
	}
	return o.base.HasEdge(k)
}

// boundary returns the base's start or end node while the delta leaves it
// alone, otherwise the added node of the type.
func (o *Overlay) boundary(baseID string, t model.NodeType) string {
	if baseID != "" && !slices.Contains(o.removedNodes, baseID) {
		return baseID
	}
	for _, n := range o.addedNodes {
		if n.Type == t {
			return n.ID
		}
	}
	return ""
}

// StartID implements model.SchemaView.
func (o *Overlay) StartID() string { return o.boundary(o.base.StartID(), model.NodeStart) }

// EndID implements model.SchemaView.
func (o *Overlay) EndID() string { return o.boundary(o.base.EndID(), model.NodeEnd) }

// DataElements implements model.SchemaView.
func (o *Overlay) DataElements() []*model.DataElement {
	return whole(o.base.DataElements(), len(o.removedData), o.hidesDataElement, o.addedData)
}

// DataElement implements model.SchemaView.
func (o *Overlay) DataElement(id string) (*model.DataElement, bool) {
	if i := o.addedDataElement(id); i >= 0 {
		return o.addedData[i], true
	}
	if slices.Contains(o.removedData, id) {
		return nil, false
	}
	return o.base.DataElement(id)
}

// Topology implements model.SchemaView: the index of the overlaid view, a
// patch of the base's index by the delta, made on first use after a
// structural or data-edge mutation.
func (o *Overlay) Topology() *model.Topology {
	if o.topo == nil {
		base := o.base.Topology()
		dataEdges := base.NumDataEdges()
		for _, de := range o.deOf {
			dataEdges += len(de.list) - len(o.base.DataEdgesOf(de.id))
		}
		o.topo = base.Patch(model.Delta{
			AddedNodes: o.addedNodes, RemovedNodes: o.removedNodes,
			AddedEdges: o.addedEdges, RemovedEdges: o.removedEdges,
			DataEdges: dataEdges,
		})
	}
	return o.topo
}

// DataEdges implements model.SchemaView.
func (o *Overlay) DataEdges() []*model.DataEdge {
	return whole(o.base.DataEdges(), len(o.removedDataEdges), o.hidesDataEdge, o.addedDataEdges)
}

// DataEdgesOf implements model.SchemaView: the delta's list where it
// touches the activity, otherwise the base's, capped so that an append
// cannot reach the base schema's memory.
func (o *Overlay) DataEdgesOf(activity string) []*model.DataEdge {
	for _, t := range o.deOf {
		if t.id == activity {
			return t.list
		}
	}
	base := o.base.DataEdgesOf(activity)
	return base[:len(base):len(base)]
}

// --- MutableView ---

// AddNode implements model.MutableView. Re-adding a node that was removed
// from the base is allowed (a moved activity keeps its identity).
func (o *Overlay) AddNode(n *model.Node) error {
	if n == nil || n.ID == "" {
		return fmt.Errorf("storage: overlay add node: empty node ID")
	}
	if _, visible := o.Node(n.ID); visible {
		return fmt.Errorf("storage: overlay add node %q: duplicate ID", n.ID)
	}
	switch n.Type {
	case model.NodeStart:
		if o.StartID() != "" {
			return fmt.Errorf("storage: overlay add node %q: start node already present", n.ID)
		}
	case model.NodeEnd:
		if o.EndID() != "" {
			return fmt.Errorf("storage: overlay add node %q: end node already present", n.ID)
		}
	}
	o.addedNodes = append(o.addedNodes, n)
	o.topo = nil
	return nil
}

// ReplaceNode implements model.MutableView: the replacement node shadows
// the base node in the overlay.
func (o *Overlay) ReplaceNode(n *model.Node) error {
	if n == nil || n.ID == "" {
		return fmt.Errorf("storage: overlay replace node: empty node ID")
	}
	old, ok := o.Node(n.ID)
	if !ok {
		return fmt.Errorf("storage: overlay replace node %q: not found", n.ID)
	}
	if old.Type != n.Type {
		return fmt.Errorf("storage: overlay replace node %q: type change %s -> %s not allowed", n.ID, old.Type, n.Type)
	}
	if i := o.addedNode(n.ID); i >= 0 {
		o.addedNodes[i] = n
	} else {
		o.addedNodes = append(o.addedNodes, n)
	}
	o.topo = nil // node attributes feed the topology's derived lists
	return nil
}

// RemoveNode implements model.MutableView.
func (o *Overlay) RemoveNode(id string) error {
	if _, visible := o.Node(id); !visible {
		return fmt.Errorf("storage: overlay remove node %q: not found", id)
	}
	if o.hasIncidentEdge(id) {
		return fmt.Errorf("storage: overlay remove node %q: incident edges remain", id)
	}
	if len(o.DataEdgesOf(id)) > 0 {
		return fmt.Errorf("storage: overlay remove node %q: data edges remain", id)
	}
	if i := o.addedNode(id); i >= 0 {
		o.addedNodes = slices.Delete(o.addedNodes, i, i+1)
	}
	// If the base has this node it must be, or stay, hidden.
	if _, inBase := o.base.Node(id); inBase && !slices.Contains(o.removedNodes, id) {
		o.removedNodes = append(o.removedNodes, id)
	}
	o.topo = nil
	return nil
}

// hasIncidentEdge reports whether an edge of the view touches the node:
// one the delta adds, or one of the base's that the delta does not hide.
// It reads the base's index, not the view's, so a change operation's
// removal of a node patches nothing.
func (o *Overlay) hasIncidentEdge(id string) bool {
	return slices.ContainsFunc(o.addedEdges, func(e *model.Edge) bool { return e.From == id || e.To == id }) ||
		slices.ContainsFunc(model.IncidentEdges(o.base, id), func(e *model.Edge) bool { return !o.hidesEdge(e) })
}

// AddEdge implements model.MutableView.
func (o *Overlay) AddEdge(e *model.Edge) error {
	if e == nil {
		return fmt.Errorf("storage: overlay add edge: nil edge")
	}
	if e.From == e.To {
		return fmt.Errorf("storage: overlay add edge %s: self edge", e)
	}
	if _, ok := o.Node(e.From); !ok {
		return fmt.Errorf("storage: overlay add edge %s: unknown source node %q", e, e.From)
	}
	if _, ok := o.Node(e.To); !ok {
		return fmt.Errorf("storage: overlay add edge %s: unknown target node %q", e, e.To)
	}
	if o.HasEdge(e.Key()) {
		return fmt.Errorf("storage: overlay add edge %s: duplicate edge", e)
	}
	o.addedEdges = append(o.addedEdges, e)
	o.topo = nil
	return nil
}

// RemoveEdge implements model.MutableView.
func (o *Overlay) RemoveEdge(k model.EdgeKey) error {
	if !o.HasEdge(k) {
		return fmt.Errorf("storage: overlay remove edge %s: not found", k)
	}
	if i := o.addedEdge(k); i >= 0 {
		o.addedEdges = slices.Delete(o.addedEdges, i, i+1)
	}
	if o.base.HasEdge(k) && !slices.Contains(o.removedEdges, k) {
		o.removedEdges = append(o.removedEdges, k)
	}
	o.topo = nil
	return nil
}

// AddDataElement implements model.MutableView.
func (o *Overlay) AddDataElement(d *model.DataElement) error {
	if d == nil || d.ID == "" {
		return fmt.Errorf("storage: overlay add data element: empty ID")
	}
	if _, visible := o.DataElement(d.ID); visible {
		return fmt.Errorf("storage: overlay add data element %q: duplicate ID", d.ID)
	}
	o.addedData = append(o.addedData, d)
	return nil
}

// RemoveDataElement implements model.MutableView.
func (o *Overlay) RemoveDataElement(id string) error {
	if _, visible := o.DataElement(id); !visible {
		return fmt.Errorf("storage: overlay remove data element %q: not found", id)
	}
	for _, de := range o.DataEdges() {
		if de.Element == id {
			return fmt.Errorf("storage: overlay remove data element %q: data edge %s remains", id, de)
		}
	}
	if i := o.addedDataElement(id); i >= 0 {
		o.addedData = slices.Delete(o.addedData, i, i+1)
	}
	if _, inBase := o.base.DataElement(id); inBase && !slices.Contains(o.removedData, id) {
		o.removedData = append(o.removedData, id)
	}
	return nil
}

// dataEdgeChanged replaces the view's data-edge list of the activity an
// added or removed data edge belongs to.
func (o *Overlay) dataEdgeChanged(activity string) {
	list := slices.Clone(overlaid(o.base.DataEdgesOf(activity), o.hidesDataEdge, o.addedDataEdges,
		func(d *model.DataEdge) bool { return d.Activity == activity }))
	if i := slices.IndexFunc(o.deOf, func(t touched) bool { return t.id == activity }); i >= 0 {
		o.deOf[i].list = list
	} else {
		o.deOf = append(o.deOf, touched{activity, list})
	}
	o.topo = nil // it counts the data edges
}

// AddDataEdge implements model.MutableView.
func (o *Overlay) AddDataEdge(d *model.DataEdge) error {
	if d == nil {
		return fmt.Errorf("storage: overlay add data edge: nil edge")
	}
	if d.Parameter == "" {
		return fmt.Errorf("storage: overlay add data edge: empty parameter name")
	}
	if _, ok := o.Node(d.Activity); !ok {
		return fmt.Errorf("storage: overlay add data edge %s: unknown activity %q", d, d.Activity)
	}
	if _, ok := o.DataElement(d.Element); !ok {
		return fmt.Errorf("storage: overlay add data edge %s: unknown data element %q", d, d.Element)
	}
	if o.hasDataEdge(d.Key()) {
		return fmt.Errorf("storage: overlay add data edge %s: duplicate edge", d)
	}
	o.addedDataEdges = append(o.addedDataEdges, d)
	o.dataEdgeChanged(d.Activity)
	return nil
}

// RemoveDataEdge implements model.MutableView.
func (o *Overlay) RemoveDataEdge(k model.DataEdgeKey) error {
	if !o.hasDataEdge(k) {
		return fmt.Errorf("storage: overlay remove data edge %v: not found", k)
	}
	if i := o.addedDataEdge(k); i >= 0 {
		o.addedDataEdges = slices.Delete(o.addedDataEdges, i, i+1)
	}
	if baseHasDataEdge(o.base, k) && !slices.Contains(o.removedDataEdges, k) {
		o.removedDataEdges = append(o.removedDataEdges, k)
	}
	o.dataEdgeChanged(k.Activity)
	return nil
}

func (o *Overlay) hasDataEdge(k model.DataEdgeKey) bool {
	return slices.ContainsFunc(o.DataEdgesOf(k.Activity), func(d *model.DataEdge) bool { return d.Key() == k })
}

func baseHasDataEdge(s *model.Schema, k model.DataEdgeKey) bool {
	return slices.ContainsFunc(s.DataEdgesOf(k.Activity), func(d *model.DataEdge) bool { return d.Key() == k })
}

// ApproxBytes estimates the memory held by the substitution block (the
// delta only — the base schema is shared across all instances): every
// delta record at its size, and the strings an added node, data element or
// data edge holds of its own. An edge's endpoints, a data edge's activity
// and element, and the names a removal lists are strings the view's nodes,
// elements and edges hold, and are not counted again. A removed entry is
// a record in its list, which IndexBytes counts beyond the entries.
func (o *Overlay) ApproxBytes() int {
	total := int(unsafe.Sizeof(""))*(len(o.removedNodes)+len(o.removedData)) +
		int(unsafe.Sizeof(model.EdgeKey{}))*len(o.removedEdges) +
		int(unsafe.Sizeof(model.DataEdgeKey{}))*len(o.removedDataEdges) +
		int(unsafe.Sizeof(model.Edge{}))*len(o.addedEdges)
	for _, n := range o.addedNodes {
		total += int(unsafe.Sizeof(*n)) + len(n.ID) + len(n.Name) + len(n.Role) + len(n.Template) + len(n.DecisionElement)
	}
	for _, d := range o.addedData {
		total += int(unsafe.Sizeof(*d)) + len(d.ID) + len(d.Name)
	}
	for _, de := range o.addedDataEdges {
		total += int(unsafe.Sizeof(*de)) + len(de.Parameter)
	}
	return total
}

// IndexBytes returns what the overlay holds around the substitution block
// to serve the view: its own record, the lists the delta's entries sit in
// (a removal list beyond its entries, which ApproxBytes counts), the
// data-edge lists of the touched activities, and the topology index —
// each from its size and the capacity it holds.
func (o *Overlay) IndexBytes() int {
	const ptr, str = 8, 16
	total := int(unsafe.Sizeof(*o)) +
		ptr*(cap(o.addedNodes)+cap(o.addedEdges)+cap(o.addedData)+cap(o.addedDataEdges)) +
		str*(spare(o.removedNodes)+spare(o.removedData)) +
		int(unsafe.Sizeof(model.EdgeKey{}))*spare(o.removedEdges) +
		int(unsafe.Sizeof(model.DataEdgeKey{}))*spare(o.removedDataEdges) +
		int(unsafe.Sizeof(touched{}))*cap(o.deOf)
	for _, t := range o.deOf {
		total += ptr * cap(t.list)
	}
	if o.topo != nil && o.topo != o.base.Topology() { // an empty delta's index is the base's
		total += o.topo.ApproxBytes()
	}
	return total
}

// spare is a list's capacity beyond its length.
func spare[T any](list []T) int { return cap(list) - len(list) }

// Materialize builds a standalone schema equal to the overlaid view: the
// full copy of the Fig. 2 comparison.
func Materialize(v model.SchemaView, id, typeName string, version int) (*model.Schema, error) {
	s := model.NewSchema(id, typeName, version)
	for _, nid := range v.NodeIDs() {
		n, _ := v.Node(nid)
		if err := s.AddNode(n.Clone()); err != nil {
			return nil, err
		}
	}
	for _, e := range v.Edges() {
		if err := s.AddEdge(e.Clone()); err != nil {
			return nil, err
		}
	}
	for _, d := range v.DataElements() {
		if err := s.AddDataElement(d.Clone()); err != nil {
			return nil, err
		}
	}
	for _, de := range v.DataEdges() {
		if err := s.AddDataEdge(de.Clone()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

var (
	_ model.SchemaView  = (*Overlay)(nil)
	_ model.MutableView = (*Overlay)(nil)
)
