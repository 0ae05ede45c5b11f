package model

import (
	"fmt"
	"time"
)

// Builder assembles block-structured schemas from fragments. Every
// composition method returns a Fragment (a single-entry single-exit
// region); Build wires the root fragment between a start and an end node.
//
// The builder collects the first error and makes all subsequent calls
// no-ops, so call sites can chain fluently and check Err (or the error
// returned by Build) once.
type Builder struct {
	s     *Schema
	err   error
	gwSeq int
}

// Fragment is a single-entry single-exit region under construction.
type Fragment struct {
	entry string
	exit  string
	valid bool
}

// NewBuilder creates a builder for version 1 of the named process type.
func NewBuilder(typeName string) *Builder {
	return NewVersionBuilder(typeName, 1)
}

// NewVersionBuilder creates a builder for an explicit schema version.
func NewVersionBuilder(typeName string, version int) *Builder {
	return &Builder{s: NewSchema(fmt.Sprintf("%s@v%d", typeName, version), typeName, version)}
}

// Err returns the first error encountered by the builder.
func (b *Builder) Err() error { return b.err }

func (b *Builder) fail(err error) Fragment {
	if b.err == nil {
		b.err = err
	}
	return Fragment{}
}

func (b *Builder) gateway(t NodeType, opts ...NodeOption) string {
	b.gwSeq++
	id := fmt.Sprintf("%s_%d", t, b.gwSeq)
	n := &Node{ID: id, Name: id, Type: t, Auto: true}
	for _, o := range opts {
		o(n)
	}
	if b.err == nil {
		b.err = b.s.AddNode(n)
	}
	return id
}

// NodeOption customizes a node created by the builder.
type NodeOption func(*Node)

// WithRole sets the staff assignment of an activity.
func WithRole(role string) NodeOption { return func(n *Node) { n.Role = role } }

// WithTemplate sets the activity template identifier.
func WithTemplate(t string) NodeOption { return func(n *Node) { n.Template = t } }

// WithAuto marks the node as automatically executed by the engine.
func WithAuto() NodeOption { return func(n *Node) { n.Auto = true } }

// WithDuration sets the nominal duration hint used by the simulator.
func WithDuration(d int) NodeOption { return func(n *Node) { n.Duration = d } }

// WithDecisionElement sets the data element an automatic XOR split or loop
// end consults.
func WithDecisionElement(elem string) NodeOption {
	return func(n *Node) { n.DecisionElement = elem }
}

// WithMaxIterations bounds an automatic loop.
func WithMaxIterations(n int) NodeOption {
	return func(node *Node) { node.MaxIterations = n }
}

// WithDeadline sets the activity's relative completion deadline, armed
// when the activity starts.
func WithDeadline(d time.Duration) NodeOption {
	return func(n *Node) { n.Deadline = int64(d) }
}

// WithEscalation names the role a timed-out activity's work item is
// re-offered to.
func WithEscalation(role string) NodeOption {
	return func(n *Node) { n.Escalation = role }
}

// Activity adds an activity node and returns it as a fragment. If no
// template option is given, the node ID doubles as its template.
func (b *Builder) Activity(id, name string, opts ...NodeOption) Fragment {
	if b.err != nil {
		return Fragment{}
	}
	n := &Node{ID: id, Name: name, Type: NodeActivity, Template: id}
	for _, o := range opts {
		o(n)
	}
	if err := b.s.AddNode(n); err != nil {
		return b.fail(err)
	}
	return Fragment{entry: id, exit: id, valid: true}
}

// Empty adds a silent automatic activity, useful as an empty branch of a
// conditional block.
func (b *Builder) Empty() Fragment {
	if b.err != nil {
		return Fragment{}
	}
	b.gwSeq++
	id := fmt.Sprintf("nop_%d", b.gwSeq)
	if err := b.s.AddNode(&Node{ID: id, Name: id, Type: NodeActivity, Auto: true, Template: "nop"}); err != nil {
		return b.fail(err)
	}
	return Fragment{entry: id, exit: id, valid: true}
}

// Seq composes fragments sequentially with control edges.
func (b *Builder) Seq(frags ...Fragment) Fragment {
	if b.err != nil {
		return Fragment{}
	}
	if len(frags) == 0 {
		return b.fail(fmt.Errorf("model: builder: empty sequence"))
	}
	for i, f := range frags {
		if !f.valid {
			return b.fail(fmt.Errorf("model: builder: invalid fragment %d in sequence", i))
		}
		if i == 0 {
			continue
		}
		if err := b.s.AddEdge(&Edge{From: frags[i-1].exit, To: f.entry, Type: EdgeControl}); err != nil {
			return b.fail(err)
		}
	}
	return Fragment{entry: frags[0].entry, exit: frags[len(frags)-1].exit, valid: true}
}

// Parallel composes fragments as branches of an AND block.
func (b *Builder) Parallel(branches ...Fragment) Fragment {
	if b.err != nil {
		return Fragment{}
	}
	if len(branches) < 2 {
		return b.fail(fmt.Errorf("model: builder: parallel block needs >=2 branches, got %d", len(branches)))
	}
	split := b.gateway(NodeANDSplit)
	join := b.gateway(NodeANDJoin)
	for i, br := range branches {
		if !br.valid {
			return b.fail(fmt.Errorf("model: builder: invalid branch %d in parallel block", i))
		}
		if err := b.s.AddEdge(&Edge{From: split, To: br.entry, Type: EdgeControl}); err != nil {
			return b.fail(err)
		}
		if err := b.s.AddEdge(&Edge{From: br.exit, To: join, Type: EdgeControl}); err != nil {
			return b.fail(err)
		}
	}
	return Fragment{entry: split, exit: join, valid: true}
}

// Choice composes fragments as branches of an XOR block. Branch i gets
// selection code i. If decisionElem is non-empty the split is automatic
// and consults the element's integer value; otherwise a user (or the test
// harness) supplies the decision when completing the split.
func (b *Builder) Choice(decisionElem string, branches ...Fragment) Fragment {
	if b.err != nil {
		return Fragment{}
	}
	if len(branches) < 2 {
		return b.fail(fmt.Errorf("model: builder: choice block needs >=2 branches, got %d", len(branches)))
	}
	opts := []NodeOption{}
	if decisionElem != "" {
		opts = append(opts, WithDecisionElement(decisionElem))
	}
	split := b.gateway(NodeXORSplit, opts...)
	join := b.gateway(NodeXORJoin)
	for i, br := range branches {
		if !br.valid {
			return b.fail(fmt.Errorf("model: builder: invalid branch %d in choice block", i))
		}
		if err := b.s.AddEdge(&Edge{From: split, To: br.entry, Type: EdgeControl, Code: i}); err != nil {
			return b.fail(err)
		}
		if err := b.s.AddEdge(&Edge{From: br.exit, To: join, Type: EdgeControl}); err != nil {
			return b.fail(err)
		}
	}
	return Fragment{entry: split, exit: join, valid: true}
}

// Loop wraps a fragment into a do-while loop block. If condElem is
// non-empty the loop end is automatic and repeats while the element's
// boolean value is true (bounded by maxIter); otherwise the decision is
// supplied when completing the loop end node.
func (b *Builder) Loop(body Fragment, condElem string, maxIter int) Fragment {
	if b.err != nil {
		return Fragment{}
	}
	if !body.valid {
		return b.fail(fmt.Errorf("model: builder: invalid loop body"))
	}
	start := b.gateway(NodeLoopStart)
	opts := []NodeOption{WithMaxIterations(maxIter)}
	if condElem != "" {
		opts = append(opts, WithDecisionElement(condElem))
	}
	end := b.gateway(NodeLoopEnd, opts...)
	if err := b.s.AddEdge(&Edge{From: start, To: body.entry, Type: EdgeControl}); err != nil {
		return b.fail(err)
	}
	if err := b.s.AddEdge(&Edge{From: body.exit, To: end, Type: EdgeControl}); err != nil {
		return b.fail(err)
	}
	if err := b.s.AddEdge(&Edge{From: end, To: start, Type: EdgeLoop}); err != nil {
		return b.fail(err)
	}
	return Fragment{entry: start, exit: end, valid: true}
}

// Sync adds a sync edge between two already-added nodes. Sync edges order
// activities in different branches of a parallel block.
func (b *Builder) Sync(from, to string) {
	if b.err != nil {
		return
	}
	if err := b.s.AddEdge(&Edge{From: from, To: to, Type: EdgeSync}); err != nil {
		b.err = err
	}
}

// DataElement declares a typed data element.
func (b *Builder) DataElement(id string, t DataType) {
	if b.err != nil {
		return
	}
	if err := b.s.AddDataElement(&DataElement{ID: id, Name: id, Type: t}); err != nil {
		b.err = err
	}
}

// Read connects an activity input parameter to a data element.
func (b *Builder) Read(act, elem, param string, mandatory bool) {
	if b.err != nil {
		return
	}
	de := &DataEdge{Activity: act, Element: elem, Access: Read, Parameter: param, Mandatory: mandatory}
	if err := b.s.AddDataEdge(de); err != nil {
		b.err = err
	}
}

// Write connects an activity output parameter to a data element.
func (b *Builder) Write(act, elem, param string) {
	if b.err != nil {
		return
	}
	de := &DataEdge{Activity: act, Element: elem, Access: Write, Parameter: param}
	if err := b.s.AddDataEdge(de); err != nil {
		b.err = err
	}
}

// Build wires the root fragment between the start and end node and returns
// the completed schema. The schema is structurally assembled but not yet
// verified; callers run internal/verify before deploying it.
func (b *Builder) Build(root Fragment) (*Schema, error) {
	if b.err != nil {
		return nil, b.err
	}
	if !root.valid {
		return nil, fmt.Errorf("model: builder: invalid root fragment")
	}
	startID, endID := "start", "end"
	if _, taken := b.s.Node(startID); taken {
		startID = "__start"
	}
	if _, taken := b.s.Node(endID); taken {
		endID = "__end"
	}
	if err := b.s.AddNode(&Node{ID: startID, Name: "start", Type: NodeStart, Auto: true}); err != nil {
		return nil, err
	}
	if err := b.s.AddNode(&Node{ID: endID, Name: "end", Type: NodeEnd, Auto: true}); err != nil {
		return nil, err
	}
	if err := b.s.AddEdge(&Edge{From: startID, To: root.entry, Type: EdgeControl}); err != nil {
		return nil, err
	}
	if err := b.s.AddEdge(&Edge{From: root.exit, To: endID, Type: EdgeControl}); err != nil {
		return nil, err
	}
	return b.s, nil
}
