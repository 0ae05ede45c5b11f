package compliance_test

import (
	"errors"
	"strings"
	"testing"

	"adept2/internal/change"
	"adept2/internal/compliance"
	"adept2/internal/data"
	"adept2/internal/engine"
	"adept2/internal/graph"
	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/sim"
	"adept2/internal/state"
)

// prepFlagInstance creates an online-order instance whose get_order also
// writes an int flag, then advances it past confirm_order.
func prepFlagInstance(t *testing.T, flag int) (*engine.Engine, *engine.Instance, *model.Schema) {
	t.Helper()
	base := sim.OnlineOrder()
	if err := base.AddDataElement(&model.DataElement{ID: "flag", Type: model.TypeInt}); err != nil {
		t.Fatal(err)
	}
	if err := base.AddDataEdge(&model.DataEdge{Activity: "get_order", Element: "flag", Access: model.Write, Parameter: "flag"}); err != nil {
		t.Fatal(err)
	}
	e := engine.New(sim.Org())
	if err := e.Deploy(base); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "get_order", "ann", map[string]any{"out": "o", "flag": flag}); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "collect_data", "ann", nil); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "confirm_order", "ann", nil); err != nil {
		t.Fatal(err)
	}
	return e, inst, base
}

// replayConditional replays the instance history against a target schema
// with a conditional insert before confirm_order.
func replayConditional(t *testing.T, base *model.Schema, inst *engine.Instance, node *model.Node) (*compliance.ReplayResult, error) {
	t.Helper()
	target := base.Clone()
	op := &change.ConditionalInsert{Node: node, Pred: "collect_data", Succ: "confirm_order", DecisionElement: "flag"}
	if err := op.ApplyTo(target); err != nil {
		t.Fatal(err)
	}
	targetInfo, err := graph.Analyze(target)
	if err != nil {
		t.Fatal(err)
	}
	baseInfo, err := graph.Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	reduced := history.ReduceInPlace(baseInfo, inst.HistoryEvents())
	return compliance.Replay(target, targetInfo, reduced)
}

// TestVirtualXORDecisionRoutesAroundInsert: the virtually fired XOR split
// reads flag=0 and routes through the empty branch, so the started
// successor replays.
func TestVirtualXORDecisionRoutesAroundInsert(t *testing.T) {
	_, inst, base := prepFlagInstance(t, 0)
	node := &model.Node{ID: "x", Type: model.NodeActivity, Role: "sales", Template: "x"}
	res, err := replayConditional(t, base, inst, node)
	if err != nil {
		t.Fatalf("flag=0 must be compliant: %v", err)
	}
	if res.VirtualFirings < 3 { // split, nop, join
		t.Fatalf("virtual firings = %d", res.VirtualFirings)
	}
	if res.Marking.Node("x") != state.Skipped {
		t.Fatalf("x should be skipped, is %s", res.Marking.Node("x"))
	}
}

// TestVirtualXORDecisionSelectsManualInsert: with flag=1 the split selects
// the manual activity, which cannot fire virtually — state conflict.
func TestVirtualXORDecisionSelectsManualInsert(t *testing.T) {
	_, inst, base := prepFlagInstance(t, 1)
	node := &model.Node{ID: "x", Type: model.NodeActivity, Role: "sales", Template: "x"}
	if _, err := replayConditional(t, base, inst, node); err == nil {
		t.Fatal("flag=1 with manual insert must fail replay")
	}
	// An automatic activity fires virtually instead: compliant.
	auto := &model.Node{ID: "x", Type: model.NodeActivity, Auto: true, Template: "x"}
	res, err := replayConditional(t, base, inst, auto)
	if err != nil {
		t.Fatalf("flag=1 with auto insert: %v", err)
	}
	if res.Marking.Node("x") != state.Completed {
		t.Fatalf("x should be virtually completed, is %s", res.Marking.Node("x"))
	}
}

// TestVirtualXORDecisionClamping: an out-of-range flag clamps to the
// lowest code (the empty branch), mirroring the engine.
func TestVirtualXORDecisionClamping(t *testing.T) {
	_, inst, base := prepFlagInstance(t, 42)
	node := &model.Node{ID: "x", Type: model.NodeActivity, Role: "sales", Template: "x"}
	res, err := replayConditional(t, base, inst, node)
	if err != nil {
		t.Fatalf("clamped decision must be compliant: %v", err)
	}
	if res.Marking.Node("x") != state.Skipped {
		t.Fatalf("x should be skipped under clamping, is %s", res.Marking.Node("x"))
	}
}

// TestComplianceErrorStrings covers the error rendering.
func TestComplianceErrorStrings(t *testing.T) {
	e := &compliance.Error{Reason: "boom"}
	if e.Error() != "compliance: boom" {
		t.Fatalf("plain error = %q", e.Error())
	}
	ev := &history.Event{Seq: 3, Kind: history.Started, Node: "a"}
	e2 := &compliance.Error{Event: ev, Reason: "boom"}
	if e2.Error() == "" || e2.Error() == e.Error() {
		t.Fatal("event error should differ")
	}
	ce := &change.ComplianceError{Op: "op", Reason: "r"}
	if ce.Error() == "" {
		t.Fatal("compliance error string")
	}
	se := &change.StructuralError{Reason: "r"}
	if se.Error() == "" {
		t.Fatal("structural error string")
	}
}

// TestReplayNamesFirstOffendingWriteInElementOrder: of two recorded writes
// the target schema has no data edge for, the error names the first in
// element order on every run (it followed map iteration order while an
// event's writes were a map, so two runs could blame different elements).
func TestReplayNamesFirstOffendingWriteInElementOrder(t *testing.T) {
	b := model.NewBuilder("plain")
	s, err := b.Build(b.Activity("a", "A", model.WithRole("clerk")))
	if err != nil {
		t.Fatal(err)
	}
	info, err := graph.Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	var writes data.Values
	for _, elem := range []string{"zulu", "mike", "alpha", "kilo"} {
		writes = writes.With(elem, "v")
	}
	events := []*history.Event{
		{Seq: 1, Kind: history.Started, Node: "a", Decision: -1},
		{Seq: 2, Kind: history.Completed, Node: "a", Decision: -1, Values: writes},
	}
	for run := 0; run < 50; run++ {
		_, err := compliance.Replay(s, info, events)
		var cerr *compliance.Error
		// The error holds a copy of the event (the caller's slice may be
		// decode scratch it reuses), so it is known by its sequence number.
		if !errors.As(err, &cerr) || cerr.Event == nil || cerr.Event.Seq != events[1].Seq || !strings.Contains(cerr.Reason, `"alpha"`) {
			t.Fatalf("run %d: replay error %v, want the write of element \"alpha\" refused", run, err)
		}
	}
}
