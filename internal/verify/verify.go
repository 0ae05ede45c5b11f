// Package verify implements the ADEPT2 buildtime correctness checks. The
// paper's premise is that dynamic changes are only safe because every
// schema — original, evolved, or ad-hoc modified — satisfies the same
// formal guarantees: structural soundness of the block structure, absence
// of deadlock-causing cycles (control + sync edges), and correct data flow
// (no activity can start with missing mandatory input data).
//
// Check runs all checks on a model.SchemaView, so plain schemas and
// biased-instance overlays are verified by identical code.
package verify

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"adept2/internal/graph"
	"adept2/internal/model"
)

// Code classifies an issue found by the verifier.
type Code string

const (
	// Errors (schema must be rejected).
	CodeNoStart       Code = "no-start"
	CodeNoEnd         Code = "no-end"
	CodeCardinality   Code = "edge-cardinality"
	CodeUnreachable   Code = "unreachable"
	CodeNoExit        Code = "no-path-to-end"
	CodeStructure     Code = "block-structure"
	CodeDeadlockCycle Code = "deadlock-cycle"
	CodeSyncExclusive Code = "sync-exclusive-branches"
	CodeSyncLoop      Code = "sync-crosses-loop"
	CodeSyncEndpoint  Code = "sync-endpoint"
	CodeMissingData   Code = "missing-data"
	CodeDecisionData  Code = "decision-data"
	CodeNotUTF8       Code = "not-utf8"

	// Warnings (schema is accepted but flagged).
	CodeSyncRedundant  Code = "sync-redundant"
	CodeLostUpdate     Code = "lost-update"
	CodeUnstableRead   Code = "unstable-read"
	CodeUnassignedRole Code = "unassigned-role"
)

// Severity distinguishes errors from warnings.
type Severity uint8

const (
	Error Severity = iota
	Warning
)

func (s Severity) String() string {
	if s == Warning {
		return "warning"
	}
	return "error"
}

// Issue is a single finding.
type Issue struct {
	Code     Code
	Severity Severity
	Message  string
	Nodes    []string
}

func (i Issue) String() string {
	if len(i.Nodes) == 0 {
		return fmt.Sprintf("%s [%s]: %s", i.Severity, i.Code, i.Message)
	}
	return fmt.Sprintf("%s [%s]: %s (nodes %s)", i.Severity, i.Code, i.Message, strings.Join(i.Nodes, ", "))
}

// Result aggregates all findings for one schema view.
type Result struct {
	Issues []Issue

	// Blocks is the block-structure analysis computed during
	// verification; nil if the structure was too broken to analyze.
	Blocks *graph.Info
}

// Errors returns the issues with severity Error.
func (r *Result) Errors() []Issue {
	var out []Issue
	for _, i := range r.Issues {
		if i.Severity == Error {
			out = append(out, i)
		}
	}
	return out
}

// OK reports whether the schema passed (warnings allowed).
func (r *Result) OK() bool { return len(r.Errors()) == 0 }

// Err returns nil when the schema passed, or an error summarizing every
// error-severity issue.
func (r *Result) Err() error {
	errs := r.Errors()
	if len(errs) == 0 {
		return nil
	}
	msgs := make([]string, len(errs))
	for i, is := range errs {
		msgs[i] = is.String()
	}
	return errors.New("verify: " + strings.Join(msgs, "; "))
}

func (r *Result) add(code Code, sev Severity, nodes []string, format string, args ...any) {
	r.Issues = append(r.Issues, Issue{
		Code:     code,
		Severity: sev,
		Message:  fmt.Sprintf(format, args...),
		Nodes:    nodes,
	})
}

// listed is a view whose whole-view lists were built once: an overlay
// builds them per call, and the passes below ask for them a dozen times.
type listed struct {
	model.SchemaView
	ids       []string
	edges     []*model.Edge
	dataEdges []*model.DataEdge
}

func (l *listed) NodeIDs() []string            { return l.ids }
func (l *listed) Edges() []*model.Edge         { return l.edges }
func (l *listed) DataEdges() []*model.DataEdge { return l.dataEdges }

// Check runs all buildtime checks and returns the aggregated result.
func Check(v model.SchemaView) *Result {
	v = &listed{SchemaView: v, ids: v.NodeIDs(), edges: v.Edges(), dataEdges: v.DataEdges()}
	r := &Result{}
	checkStrings(v, r)
	checkCardinalities(v, r)
	checkConnectivity(v, r)

	info, err := graph.Analyze(v)
	if err != nil {
		r.add(CodeStructure, Error, nil, "%v", err)
	} else {
		r.Blocks = info
	}

	checkDeadlockCycles(v, r)
	if r.Blocks != nil {
		checkSyncEdges(v, r.Blocks, r)
		checkDataFlow(v, r.Blocks, r)
	}
	checkRoles(v, r)
	return r
}

// Err is a convenience wrapper: it runs Check and returns Result.Err().
func Err(v model.SchemaView) error {
	return Check(v).Err()
}

// Has reports whether the result holds an issue with the code.
func (r *Result) Has(code Code) bool {
	return slices.ContainsFunc(r.Issues, func(i Issue) bool { return i.Code == code })
}

// checkStrings refuses a schema holding a string that is not UTF-8: the
// journal and the snapshot write JSON, which carries such a string only as
// U+FFFD, so the schema would come back altered after a reopen.
func checkStrings(v model.SchemaView, r *Result) {
	check := func(node, what, s string) {
		if !utf8.ValidString(s) {
			var nodes []string
			if node != "" {
				nodes = []string{node}
			}
			r.add(CodeNotUTF8, Error, nodes, "%s %q is not UTF-8", what, s)
		}
	}
	check("", "type name", v.TypeName())
	for _, id := range v.NodeIDs() {
		n, _ := v.Node(id)
		for _, s := range [...]string{n.ID, n.Name, n.Role, n.Template, n.DecisionElement} {
			check(id, "node string", s)
		}
	}
	for _, d := range v.DataElements() {
		check("", "data element ID", d.ID)
		check("", "data element name", d.Name)
	}
	for _, de := range v.DataEdges() {
		check(de.Activity, "data edge parameter", de.Parameter)
	}
}

// checkCardinalities validates per-node edge counts. In a block-structured
// schema every node type has fixed control-edge cardinalities.
func checkCardinalities(v model.SchemaView, r *Result) {
	if v.StartID() == "" {
		r.add(CodeNoStart, Error, nil, "schema has no start node")
	}
	if v.EndID() == "" {
		r.add(CodeNoEnd, Error, nil, "schema has no end node")
	}
	topo := v.Topology()
	for i := range model.NodeIdx(topo.NumNodes()) {
		if topo.Hidden(i) {
			continue
		}
		nt := topo.At(i)
		n, id := nt.Node(), topo.ID(i)
		inC, outC := len(nt.InControlIdx()), len(nt.OutControlIdx())
		inLoop, outLoop := len(nt.InLoopIdx()), len(nt.OutLoopIdx())
		if n.Type == model.NodeStart || n.Type == model.NodeEnd {
			for range len(nt.InSyncIdx()) + len(nt.OutSyncIdx()) {
				r.add(CodeSyncEndpoint, Error, []string{id}, "sync edge attached to %s node", n.Type)
			}
		}
		bad := func(format string, args ...any) {
			r.add(CodeCardinality, Error, []string{id}, format, args...)
		}
		switch n.Type {
		case model.NodeStart:
			if inC != 0 || outC != 1 {
				bad("start node must have 0 incoming and 1 outgoing control edge, has %d/%d", inC, outC)
			}
		case model.NodeEnd:
			if inC != 1 || outC != 0 {
				bad("end node must have 1 incoming and 0 outgoing control edges, has %d/%d", inC, outC)
			}
		case model.NodeActivity:
			if inC != 1 || outC != 1 {
				bad("activity must have exactly 1 incoming and 1 outgoing control edge, has %d/%d", inC, outC)
			}
		case model.NodeANDSplit, model.NodeXORSplit:
			if inC != 1 || outC < 2 {
				bad("split must have 1 incoming and >=2 outgoing control edges, has %d/%d", inC, outC)
			}
		case model.NodeANDJoin, model.NodeXORJoin:
			if inC < 2 || outC != 1 {
				bad("join must have >=2 incoming and 1 outgoing control edges, has %d/%d", inC, outC)
			}
		case model.NodeLoopStart:
			if inC != 1 || outC != 1 || inLoop != 1 {
				bad("loop start must have 1 incoming control, 1 outgoing control, 1 incoming loop edge, has %d/%d/%d", inC, outC, inLoop)
			}
		case model.NodeLoopEnd:
			if inC != 1 || outC != 1 || outLoop != 1 {
				bad("loop end must have 1 incoming control, 1 outgoing control, 1 outgoing loop edge, has %d/%d/%d", inC, outC, outLoop)
			}
		}
		if n.Type != model.NodeLoopStart && inLoop > 0 {
			bad("%s node must not receive loop edges", n.Type)
		}
		if n.Type != model.NodeLoopEnd && outLoop > 0 {
			bad("%s node must not source loop edges", n.Type)
		}
	}
}

// checkConnectivity validates that every node lies on a path from start to
// end over control edges.
func checkConnectivity(v model.SchemaView, r *Result) {
	start, end := v.StartID(), v.EndID()
	if start == "" || end == "" {
		return
	}
	fromStart := graph.Reachable(v, start, graph.Control, true)
	toEnd := graph.Reachable(v, end, graph.Control, false)
	var unreachable, dead []string
	for _, id := range v.NodeIDs() {
		if !fromStart[id] {
			unreachable = append(unreachable, id)
		}
		if !toEnd[id] {
			dead = append(dead, id)
		}
	}
	sort.Strings(unreachable)
	sort.Strings(dead)
	if len(unreachable) > 0 {
		r.add(CodeUnreachable, Error, unreachable, "nodes not reachable from start")
	}
	if len(dead) > 0 {
		r.add(CodeNoExit, Error, dead, "nodes cannot reach end")
	}
}

// checkDeadlockCycles is the paper's central structural criterion: the
// graph of control and sync edges (loop edges excluded) must be acyclic,
// otherwise instances block each other forever. This is the check that
// rejects instance I2 of Fig. 1 after the type change.
func checkDeadlockCycles(v model.SchemaView, r *Result) {
	if _, err := graph.TopoOrder(v, graph.ControlAndSync); err != nil {
		r.add(CodeDeadlockCycle, Error, nil, "deadlock-causing cycle: %v", err)
	}
}

// checkSyncEdges validates sync-edge placement: sync edges order
// activities of *parallel* branches. A sync edge between exclusive (XOR)
// branches can never fire consistently; one crossing a loop boundary has
// ambiguous per-iteration semantics; one within a single branch is
// redundant (the control flow already orders the nodes).
func checkSyncEdges(v model.SchemaView, info *graph.Info, r *Result) {
	for _, e := range v.Edges() {
		if e.Type != model.EdgeSync {
			continue
		}
		if crossesLoopBoundary(info, e.From, e.To) {
			r.add(CodeSyncLoop, Error, []string{e.From, e.To}, "sync edge %s crosses a loop boundary", e)
			continue
		}
		if blk, _, _, ok := info.Divergence(e.From, e.To); ok {
			if blk.Kind == model.NodeXORSplit {
				r.add(CodeSyncExclusive, Error, []string{e.From, e.To}, "sync edge %s connects exclusive branches of xor block %q..%q", e, blk.Split, blk.Join)
			}
			continue
		}
		// No divergence: the nodes are ordered by control flow already.
		if graph.HasPath(v, e.From, e.To, graph.Control) {
			r.add(CodeSyncRedundant, Warning, []string{e.From, e.To}, "sync edge %s duplicates existing control flow order", e)
		}
		// The opposite direction creates a cycle, reported by the
		// deadlock check.
	}
}

// crossesLoopBoundary reports whether the innermost loop contexts of the
// two nodes differ.
func crossesLoopBoundary(info *graph.Info, a, b string) bool {
	return innermostLoop(info, a) != innermostLoop(info, b)
}

func innermostLoop(info *graph.Info, id string) *graph.Block {
	var loop *graph.Block
	for _, ref := range info.Path(id) {
		if ref.Block.Kind == model.NodeLoopStart {
			loop = ref.Block
		}
	}
	return loop
}

// checkRoles warns about manual activities without staff assignment.
func checkRoles(v model.SchemaView, r *Result) {
	for _, id := range v.NodeIDs() {
		n, _ := v.Node(id)
		if n.Type == model.NodeActivity && !n.Auto && n.Role == "" {
			r.add(CodeUnassignedRole, Warning, []string{id}, "manual activity %q has no staff assignment", id)
		}
	}
}
