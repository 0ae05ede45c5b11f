package model

import "fmt"

// NodeType enumerates the node kinds of the ADEPT2 meta model. Process
// schemas are block-structured: every split node has exactly one matching
// join node of the corresponding type, and blocks are properly nested.
type NodeType uint8

const (
	// NodeActivity is a regular work item carried out by a user or an
	// application component.
	NodeActivity NodeType = iota
	// NodeStart is the unique source node of a schema.
	NodeStart
	// NodeEnd is the unique sink node of a schema.
	NodeEnd
	// NodeANDSplit opens a parallel block; all outgoing branches execute.
	NodeANDSplit
	// NodeANDJoin closes a parallel block; it waits for all branches.
	NodeANDJoin
	// NodeXORSplit opens a conditional block; exactly one branch executes,
	// selected by the decision code of the split.
	NodeXORSplit
	// NodeXORJoin closes a conditional block.
	NodeXORJoin
	// NodeLoopStart opens a loop block (ADEPT loops are do-while: the body
	// executes at least once).
	NodeLoopStart
	// NodeLoopEnd closes a loop block and decides whether to iterate again
	// (signalling the loop edge back to the matching NodeLoopStart).
	NodeLoopEnd
)

var nodeTypeNames = [...]string{
	NodeActivity:  "activity",
	NodeStart:     "start",
	NodeEnd:       "end",
	NodeANDSplit:  "and-split",
	NodeANDJoin:   "and-join",
	NodeXORSplit:  "xor-split",
	NodeXORJoin:   "xor-join",
	NodeLoopStart: "loop-start",
	NodeLoopEnd:   "loop-end",
}

func (t NodeType) String() string {
	if int(t) < len(nodeTypeNames) {
		return nodeTypeNames[t]
	}
	return fmt.Sprintf("node-type(%d)", uint8(t))
}

// IsJoin reports whether the node type closes a block.
func (t NodeType) IsJoin() bool {
	return t == NodeANDJoin || t == NodeXORJoin || t == NodeLoopEnd
}

// MatchingJoin returns the join type that closes a block opened by t.
func (t NodeType) MatchingJoin() (NodeType, bool) {
	switch t {
	case NodeANDSplit:
		return NodeANDJoin, true
	case NodeXORSplit:
		return NodeXORJoin, true
	case NodeLoopStart:
		return NodeLoopEnd, true
	}
	return 0, false
}

// Node is a schema node. Nodes are identified by a schema-unique ID.
type Node struct {
	ID   string
	Name string
	Type NodeType

	// Role is the staff assignment: the organizational role whose members
	// may work on the activity. Empty means the node is executed by the
	// system (all gateways, silent activities).
	Role string

	// Template names the reusable activity template the node instantiates.
	// It is used for semantical conflict detection during migration (two
	// changes inserting the same template into overlapping regions).
	Template string

	// Auto marks nodes the engine starts and completes automatically as
	// soon as they become activated (gateways and silent activities).
	Auto bool

	// DecisionElement names the data element an automatic NodeXORSplit or
	// NodeLoopEnd consults for its routing decision. For an XOR split the
	// element's integer value selects the outgoing edge code; for a loop
	// end a true boolean value repeats the loop.
	DecisionElement string

	// MaxIterations bounds loop execution for NodeLoopEnd (safety net for
	// automatic loops; 0 means unbounded).
	MaxIterations int

	// Duration is a nominal duration hint in abstract ticks, used by the
	// workload simulator. It has no semantic meaning.
	Duration int

	// Deadline is the activity's relative completion deadline in
	// nanoseconds, armed at the moment the activity starts. 0 means the
	// activity has no deadline. When a running activity exceeds its
	// armed deadline the engine appends a Timeout event and escalates
	// the work item.
	Deadline int64

	// Escalation names the role a timed-out activity's work item is
	// re-offered to. Empty means the item stays with (is re-offered to)
	// the original Role.
	Escalation string
}

// Clone returns a copy of the node.
func (n *Node) Clone() *Node {
	c := *n
	return &c
}

// CanAutoExecute reports whether the engine may start and complete the
// node without user interaction: the node is automatic and — for decision
// gateways — able to derive its routing decision on its own. The engine's
// execution cascade and the compliance replay share this predicate so
// migration behaves exactly like live execution.
func (n *Node) CanAutoExecute() bool {
	if !n.Auto {
		return false
	}
	switch n.Type {
	case NodeXORSplit:
		return n.DecisionElement != ""
	case NodeLoopEnd:
		return n.DecisionElement != "" || n.MaxIterations == 1
	case NodeStart, NodeEnd:
		return false // handled specially by the engine
	default:
		return true
	}
}

// manual reports whether the node is a user-worked activity.
func (n *Node) manual() bool { return n.Type == NodeActivity && !n.Auto }

func (n *Node) String() string {
	if n.Name != "" && n.Name != n.ID {
		return fmt.Sprintf("%s[%s %q]", n.ID, n.Type, n.Name)
	}
	return fmt.Sprintf("%s[%s]", n.ID, n.Type)
}
