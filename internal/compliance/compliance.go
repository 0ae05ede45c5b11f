// Package compliance implements the ADEPT2 compliance criterion for
// dynamic process changes: a running instance may adopt a changed schema
// iff its loop-reduced execution history could have been produced on that
// schema (relaxed trace equivalence — entries for newly inserted automatic
// nodes may be interleaved, entries of deleted nodes must not exist).
//
// Replay is the ground-truth checker: it re-executes the reduced history
// on the target schema view event by event. The event log is interned
// against the target topology once up front, so the per-event loop runs on
// dense node indices — array-indexed marking reads and writes, no
// string-keyed map traffic. The fast path — the per-operation conditions
// of Fig. 1, implemented on each operation in internal/change — answers
// the same question in O(affected nodes) using the instance's marking and
// execution index; CheckFast evaluates it. Property-based tests assert
// that both paths agree.
package compliance

import (
	"fmt"

	"adept2/internal/bitset"
	"adept2/internal/change"
	"adept2/internal/data"
	"adept2/internal/graph"
	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/state"
)

// Error reports why a history is not replayable on a schema view.
type Error struct {
	// Event is the first history event that could not be reproduced (nil
	// when the failure is not event-specific).
	Event *history.Event
	// Reason explains the failure.
	Reason string

	event history.Event // what Event points to, when Replay built the error
}

// eventError reports e as the event that could not be reproduced. The
// error holds a copy, in its own allocation: e may be decode scratch
// (history.ReduceInto) that the caller's next reduction overwrites while
// the error is still held.
func eventError(e *history.Event, reason string) *Error {
	err := &Error{Reason: reason, event: *e}
	err.Event = &err.event
	return err
}

func (e *Error) Error() string {
	if e.Event != nil {
		return fmt.Sprintf("compliance: event %s: %s", e.Event, e.Reason)
	}
	return "compliance: " + e.Reason
}

// ReplayResult carries the state reconstructed by a successful replay.
type ReplayResult struct {
	// Marking is the instance marking after replaying the full history on
	// the target view — i.e. the adapted state a migrated instance
	// receives.
	Marking *state.Marking
	// Store holds the data versions reconstructed from the history.
	Store *data.Store
	// VirtualFirings counts how many newly inserted automatic nodes had to
	// be interleaved (a measure of how much the change affected the
	// already-passed region).
	VirtualFirings int
}

// Replay checks whether the (reduced) history is reproducible on the
// target view and reconstructs the resulting state. info must be the block
// analysis of the target view.
//
// Newly inserted automatic nodes (no event in the history, auto-executable
// per model.Node.CanAutoExecute) are fired virtually whenever a recorded
// event is blocked on them — the "relaxed" part of the trace equivalence.
// Newly inserted manual activities are never fired virtually: if a
// recorded event depends on one, the instance is not compliant.
func Replay(view model.SchemaView, info *graph.Info, events []*history.Event) (*ReplayResult, error) {
	var r Replayer
	return r.Replay(view, info, events)
}

// Replayer holds the reusable scratch buffers of the replay checker: the
// interned event log, the in-history bitset, the evaluator's activation
// buffer, and the virtual-firing candidate list. The zero value is ready
// to use; reusing one Replayer across many replays (e.g. the per-worker
// loop of a population migration) avoids reallocating the scratch per
// instance. A Replayer is not safe for concurrent use.
type Replayer struct {
	evIdx      []model.NodeIdx
	inHistory  bitset.Set
	evalBuf    []model.NodeIdx
	candidates []model.NodeIdx
}

// replayRun carries the per-replay state shared across events.
type replayRun struct {
	view  model.SchemaView
	topo  *model.Topology
	m     *state.Marking
	store *data.Store
	res   *ReplayResult
	sc    *Replayer
}

// evaluate runs one incremental evaluation pass through the scratch
// activation buffer.
func (r *replayRun) evaluate() []model.NodeIdx {
	r.sc.evalBuf = state.EvaluateInto(r.view, r.m, r.sc.evalBuf)
	return r.sc.evalBuf
}

// Replay is the scratch-reusing form of the package-level Replay.
func (sc *Replayer) Replay(view model.SchemaView, info *graph.Info, events []*history.Event) (*ReplayResult, error) {
	topo := view.Topology()
	m := state.NewMarking(view)
	m.Init(view)
	store := data.NewStore()

	// Intern the event log once: the per-event loop below never touches a
	// string-keyed map. Missing nodes are detected here but reported at
	// their event's replay position, preserving error ordering.
	sc.evIdx = sc.evIdx[:0]
	if words := bitset.Words(topo.NumNodes()); cap(sc.inHistory) < words {
		sc.inHistory = make(bitset.Set, words)
	} else {
		sc.inHistory = sc.inHistory[:words]
		sc.inHistory.Reset()
	}
	sc.candidates = sc.candidates[:0]
	for _, e := range events {
		idx, ok := topo.Idx(e.Node)
		if !ok {
			idx = model.InvalidNode
		} else {
			sc.inHistory.Set(int(idx))
		}
		sc.evIdx = append(sc.evIdx, idx)
	}

	res := &ReplayResult{Marking: m, Store: store}
	// One shared evaluation scratch serves all replayed events; the
	// virtual-firing candidates are maintained from its activation output
	// instead of rescanning the whole schema per blocked event.
	r := replayRun{view: view, topo: topo, m: m, store: store, res: res, sc: sc}
	r.observe(r.evaluate())

	for i, e := range events {
		ni := sc.evIdx[i]
		if ni == model.InvalidNode {
			return nil, eventError(e, "node no longer exists in the target schema")
		}
		nt := topo.At(ni)
		n := nt.Node()
		seq, decision := int(e.Seq), int(e.Decision)
		switch e.Kind {
		case history.Started:
			for m.NodeAt(ni) != state.Activated {
				if !r.fireVirtual(seq) {
					return nil, eventError(e, fmt.Sprintf("node is %s and cannot become activated", m.NodeAt(ni)))
				}
				r.observe(r.evaluate())
			}
			// Mandatory inputs must have been available.
			for _, de := range view.DataEdgesOf(e.Node) {
				if de.Access == model.Read && de.Mandatory && !store.Has(de.Element) {
					return nil, eventError(e, fmt.Sprintf("mandatory input element %q had no value", de.Element))
				}
			}
			if err := m.StartAt(ni); err != nil {
				return nil, eventError(e, err.Error())
			}
		case history.Completed:
			if m.NodeAt(ni) != state.Running {
				return nil, eventError(e, fmt.Sprintf("node is %s, not running", m.NodeAt(ni)))
			}
			// The recorded routing decision must still be possible.
			if n.Type == model.NodeXORSplit {
				found := false
				for _, ei := range nt.OutControlIdx() {
					if topo.EdgeAt(ei).Code == decision {
						found = true
						break
					}
				}
				if !found {
					return nil, eventError(e, fmt.Sprintf("selected branch (code %d) no longer exists", decision))
				}
			}
			// Outputs must exactly cover the write edges of the target
			// schema.
			for _, de := range view.DataEdgesOf(e.Node) {
				if de.Access != model.Write {
					continue
				}
				if _, ok := e.Writes().Get(de.Element); !ok {
					return nil, eventError(e, fmt.Sprintf("completion wrote no value for element %q required by the target schema", de.Element))
				}
			}
			// In element order: of two offending writes the first is named
			// on every run.
			for _, w := range e.Writes() {
				if !writesElement(view, e.Node, w.Name) {
					return nil, eventError(e, fmt.Sprintf("recorded write of element %q has no data edge in the target schema", w.Name))
				}
				store.Write(w.Name, w.Value, e.Node, seq)
			}
			if n.Type == model.NodeLoopEnd && e.Again {
				blk, ok := info.ByJoinAt(ni)
				if !ok {
					return nil, eventError(e, "loop end has no loop block in the target schema")
				}
				state.ResetLoop(view, m, blk.Region())
			} else {
				if err := m.CompleteAt(ni, decision); err != nil {
					return nil, eventError(e, err.Error())
				}
			}
		case history.Failed:
			// ReduceInPlace purges failed attempts, so reduced histories never
			// reach this case; raw replays undo the attempt like the
			// live engine did: the node reverts to activated.
			if m.NodeAt(ni) != state.Running {
				return nil, eventError(e, fmt.Sprintf("node is %s, not running", m.NodeAt(ni)))
			}
			m.SetNodeAt(ni, state.Activated)
		case history.Timeout:
			// Audit marker: the node keeps running.
			if m.NodeAt(ni) != state.Running {
				return nil, eventError(e, fmt.Sprintf("node is %s, not running", m.NodeAt(ni)))
			}
		}
		r.observe(r.evaluate())
	}
	return res, nil
}

// observe folds the newly activated nodes of one evaluation pass into the
// virtual-firing candidate set.
func (r *replayRun) observe(activated []model.NodeIdx) {
	for _, ni := range activated {
		if r.sc.inHistory.Has(int(ni)) {
			continue
		}
		if !r.topo.At(ni).Node().CanAutoExecute() {
			continue
		}
		r.insertCandidate(ni)
	}
}

// insertCandidate inserts the node into the candidate list, keeping it
// sorted by interned index (= view position) so firings stay in
// deterministic schema order.
func (r *replayRun) insertCandidate(ni model.NodeIdx) {
	cs := r.sc.candidates
	pos := len(cs)
	for i, c := range cs {
		if c == ni {
			return
		}
		if c > ni {
			pos = i
			break
		}
	}
	cs = append(cs, 0)
	copy(cs[pos+1:], cs[pos:])
	cs[pos] = ni
	r.sc.candidates = cs
}

// fireVirtual starts and completes one newly inserted automatic node, in
// deterministic schema order. It returns false when no such node is
// enabled.
func (r *replayRun) fireVirtual(seq int) bool {
	cs := r.sc.candidates
	for i := 0; i < len(cs); i++ {
		ni := cs[i]
		if r.m.NodeAt(ni) != state.Activated {
			// Stale candidate (e.g. demoted by a loop reset): drop it.
			cs = append(cs[:i], cs[i+1:]...)
			r.sc.candidates = cs
			i--
			continue
		}
		n := r.topo.At(ni).Node()
		if err := r.m.StartAt(ni); err != nil {
			continue
		}
		decision := -1
		if n.Type == model.NodeXORSplit {
			decision = virtualDecision(r.store, r.topo, ni)
		}
		// Virtual completions zero-fill their write edges, mirroring the
		// engine's automatic execution. Virtual loop ends never iterate
		// during replay (decision stays -1).
		for _, de := range r.view.DataEdgesOf(n.ID) {
			if de.Access != model.Write {
				continue
			}
			if elem, ok := r.view.DataElement(de.Element); ok {
				r.store.Write(de.Element, elem.Type.ZeroValue(), n.ID, seq)
			}
		}
		if err := r.m.CompleteAt(ni, decision); err != nil {
			continue
		}
		r.sc.candidates = append(cs[:i], cs[i+1:]...)
		r.res.VirtualFirings++
		return true
	}
	return false
}

// virtualDecision resolves an XOR decision for a virtually fired split:
// the decision element's current value, clamped to the lowest existing
// code — identical to the engine's clamping rule.
func virtualDecision(store *data.Store, topo *model.Topology, ni model.NodeIdx) int {
	nt := topo.At(ni)
	outs := nt.OutControlIdx()
	min := topo.EdgeAt(outs[0]).Code
	for _, ei := range outs {
		if c := topo.EdgeAt(ei).Code; c < min {
			min = c
		}
	}
	n := nt.Node()
	if n.DecisionElement == "" {
		return min
	}
	val, ok := store.Read(n.DecisionElement)
	if !ok {
		return min
	}
	want, ok := data.AsInt(val)
	if !ok {
		return min
	}
	for _, ei := range outs {
		if topo.EdgeAt(ei).Code == want {
			return want
		}
	}
	return min
}

func writesElement(v model.SchemaView, node, elem string) bool {
	for _, de := range v.DataEdgesOf(node) {
		if de.Access == model.Write && de.Element == elem {
			return true
		}
	}
	return false
}

// CheckFast evaluates the fast per-operation compliance conditions (paper
// Fig. 1) of a change against a running instance. It returns nil when the
// instance may adopt the change.
func CheckFast(ctx *change.Context, ops []change.Operation) error {
	for _, op := range ops {
		if err := op.FastCompliance(ctx); err != nil {
			return err
		}
	}
	return nil
}
