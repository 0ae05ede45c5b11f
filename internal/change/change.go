// Package change implements the ADEPT2 change framework: the complete set
// of high-level change operations (insert, delete, and move activities;
// insert and delete sync edges; data-flow changes), each with
//
//   - a structural precondition (Precheck) evaluated on the schema,
//   - an application procedure (ApplyTo) usable on plain schemas and on
//     biased-instance overlays alike, and
//   - a *fast compliance condition* (FastCompliance) — the per-operation
//     state condition of Fig. 1 of the paper that decides in O(1) whether
//     a running instance may adopt the change, without replaying its
//     execution history.
//
// The fast conditions are exact with respect to the replay-based
// compliance criterion in internal/compliance; the property-based tests in
// that package verify the equivalence on randomized workloads.
package change

import (
	"fmt"

	"adept2/internal/data"
	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/state"
)

// Context carries the instance facets a fast compliance condition
// consults: the current schema view, the marking, the per-node execution
// index, and the data store. All reads are O(1) per queried node.
//
// The conditions intern each referenced node ID once against the marking's
// bound topology and then consult markings and stats through dense
// index-based accessors — one map lookup per distinct node instead of one
// per facet read. The execution index is bound to the same topology as
// the marking; a node outside it has no record.
type Context struct {
	View    model.SchemaView
	Marking *state.Marking
	Stats   *history.Stats
	Store   *data.Store

	topo *model.Topology // interning domain, lazily bound (see topology)
}

// topology returns the interning domain of the fast conditions: the
// topology the instance marking is bound to, whose index space its dense
// arrays are laid out in.
func (c *Context) topology() *model.Topology {
	if c.topo == nil {
		c.topo = c.Marking.Topology()
	}
	return c.topo
}

// node interns a node ID against the marking's topology.
func (c *Context) node(id string) (model.NodeIdx, bool) { return c.topology().Idx(id) }

// startedAt reports whether the interned node entered execution in the
// current loop iteration.
func (c *Context) startedAt(i model.NodeIdx) bool { return c.Stats.StartedAt(c.topology(), i) }

// started reports whether the node entered execution in the current loop
// iteration; a node outside the marking's topology never did.
func (c *Context) started(node string) bool {
	i, ok := c.node(node)
	return ok && c.startedAt(i)
}

// startSeqAt returns the interned node's start sequence (0 if never
// started).
func (c *Context) startSeqAt(i model.NodeIdx) int { return c.Stats.StartSeqAt(c.topology(), i) }

// completeSeqAt returns the interned node's completion sequence (0 if not
// completed).
func (c *Context) completeSeqAt(i model.NodeIdx) int { return c.Stats.CompleteSeqAt(c.topology(), i) }

// stateAt returns the marking state of the interned node.
func (c *Context) stateAt(i model.NodeIdx) state.NodeState { return c.Marking.NodeAt(i) }

// ComplianceError describes a state-related conflict: the instance has
// progressed beyond the point the operation touches.
type ComplianceError struct {
	Op     string
	Reason string
}

func (e *ComplianceError) Error() string {
	return fmt.Sprintf("change: %s: state conflict: %s", e.Op, e.Reason)
}

func stateConflict(op, format string, args ...any) error {
	return &ComplianceError{Op: op, Reason: fmt.Sprintf(format, args...)}
}

// Operation is one ADEPT2 change operation. Operations implement
// engine.BiasOp, so a recorded instance bias can be re-applied to build
// the instance's overlay: over its deployed version when it changes, is
// undone or is restored, and over a new schema version when it migrates.
type Operation interface {
	// OpName identifies the operation kind (stable, used in JSON).
	OpName() string
	// Precheck validates structural preconditions against a view.
	Precheck(v model.SchemaView) error
	// ApplyTo applies the operation to a mutable view. The caller is
	// responsible for running the verifier on the result (the framework
	// helpers in this package do).
	ApplyTo(v model.MutableView) error
	// FastCompliance evaluates the operation's state condition against a
	// running instance. nil means the instance can adopt the change.
	FastCompliance(ctx *Context) error
	// InsertedTemplate returns the activity template the operation inserts
	// ("" for non-inserting operations); semantical conflict detection
	// compares these across concurrent changes.
	InsertedTemplate() string
	// String renders the operation for reports.
	String() string
}

// InsertedTemplates collects the activity templates inserted by a change.
func InsertedTemplates(ops []Operation) map[string]bool {
	out := make(map[string]bool)
	for _, op := range ops {
		if t := op.InsertedTemplate(); t != "" {
			out[t] = true
		}
	}
	return out
}
