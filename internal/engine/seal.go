package engine

import (
	"fmt"
	"reflect"
	"sync/atomic"

	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/state"
)

// derivedLocked rebuilds the running part a sealed instance dropped (see
// Instance), on its current view, for a reader to own. The execution index
// and the loop counts follow the history event by event as the live
// commands kept them: a start opens a node's record, a completion closes
// it, a failure removes it, and a loop iteration purges its region's
// records. The marking is then what state adaptation makes of that index —
// the nodes it records completed keep that state, every edge signal,
// activation and skip is derived by the evaluator — and the end node the
// evaluation activates is the one the finishing cascade completed. Events
// of a node the view no longer has are passed over: the only such node of
// a finished instance is a failed activity a skip reaction deleted, whose
// record its failure already removed.
func (inst *Instance) derivedLocked() *running {
	v, info := inst.viewLocked()
	topo := v.Topology()
	r := newRunning(v)
	var e history.Event
	for c := inst.hist.Events(); c.Next(&e); {
		if _, ok := topo.Idx(e.Node); !ok {
			continue
		}
		switch e.Kind {
		case history.Started:
			r.stats.OnStart(e.Node, int(e.Seq))
		case history.Completed:
			r.stats.OnComplete(e.Node, int(e.Seq), int(e.Decision))
			if blk, ok := info.ByJoin(e.Node); ok && e.Again {
				r.iterate(v, e.Node, blk.Region())
			}
		case history.Failed:
			r.stats.OnFail(e.Node)
		}
	}
	for i := range topo.NumNodes() {
		ni := model.NodeIdx(i)
		switch {
		case r.stats.CompleteSeqAt(topo, ni) > 0:
			r.marking.SetNodeAt(ni, state.Completed)
		case r.stats.StartSeqAt(topo, ni) > 0:
			r.marking.SetNodeAt(ni, state.Running)
		}
	}
	state.Adapt(v, &r.marking, &r.stats)
	// An automatic node a migration inserted where the instance had passed
	// is fired by the cascade after a state adaptation, which records it,
	// but compliance replay fires it virtually, without an event
	// (evolution.AdaptReplay). It is the one node besides the end that a
	// finished instance's history leaves activated, and it is fired here as
	// replay fired it, until none is left.
	for fired := true; fired; {
		fired = false
		for _, ni := range topo.AutoExecutableIdx() {
			if r.marking.NodeAt(ni) != state.Activated {
				continue
			}
			_ = r.marking.StartAt(ni)
			_ = r.marking.CompleteAt(ni, inst.virtualDecision(v, topo.At(ni).Node()))
			state.Evaluate(v, &r.marking)
			fired = true
		}
	}
	if end := topo.EndIdx(); end != model.InvalidNode && r.marking.NodeAt(end) == state.Activated {
		r.marking.SetNodeAt(end, state.Completed)
	}
	return r
}

// virtualDecision is the selection code compliance replay gives a split
// it fires virtually: the engine's own, from the decision element
// (xorDecisionLocked), and the lowest code where the element holds no
// integer; -1 for a node that is no XOR split.
func (inst *Instance) virtualDecision(v model.SchemaView, n *model.Node) int {
	if n.Type != model.NodeXORSplit {
		return -1
	}
	if code, err := inst.xorDecisionLocked(v, n, completeOpts{}); err == nil {
		return code
	}
	outs := model.OutControlEdges(v, n.ID)
	low := outs[0].Code
	for _, e := range outs {
		low = min(low, e.Code)
	}
	return low
}

// sealCheck is the check SetSealCheck installs.
var sealCheck atomic.Pointer[func(id, diff string)]

// SetSealCheck has every seal compare the running part it drops with the
// one the instance's history derives, and call check with the instance's
// ID and the first difference ("" for none); a nil check stops it. It is
// a test's hold on derivedLocked: what a sealed instance derives must be
// what it held.
func SetSealCheck(check func(id, diff string)) {
	if check == nil {
		sealCheck.Store(nil)
		return
	}
	sealCheck.Store(&check)
}

// diffRunning names the first difference between a held running part and
// a derived one, in the exported forms a snapshot writes: the marking, the
// execution index, the loop counts, and the exception state, which a
// derived part leaves empty.
func diffRunning(held, derived *running) string {
	pairs := []struct {
		what      string
		held, got any
	}{
		{"marking", held.marking.Export(&held.stats), derived.marking.Export(&derived.stats)},
		{"execution index", held.stats.Export(), derived.stats.Export()},
		{"loop counts", held.loopIter, derived.loopIter},
	}
	for _, p := range pairs {
		if !reflect.DeepEqual(p.held, p.got) {
			return fmt.Sprintf("%s: held %+v, derived %+v", p.what, p.held, p.got)
		}
	}
	if n := len(held.deadlines) + len(held.retryAt) + len(held.failures) + len(held.escalated) + len(held.compPending); n > 0 {
		return fmt.Sprintf("exception state: %d entries held at the seal", n)
	}
	return ""
}
