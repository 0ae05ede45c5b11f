package compliance_test

import (
	"strings"
	"testing"

	"adept2/internal/change"
	"adept2/internal/compliance"
	"adept2/internal/engine"
	"adept2/internal/graph"
	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/sim"
	"adept2/internal/state"
)

func newEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(sim.Org())
	if err := e.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	return e
}

// targetSchema applies ΔT to a copy of the online-order schema (the S' of
// Fig. 1).
func targetSchema(t *testing.T) (*model.Schema, *graph.Info) {
	t.Helper()
	s2 := sim.OnlineOrder()
	for _, op := range sim.OnlineOrderTypeChange() {
		if err := op.ApplyTo(s2); err != nil {
			t.Fatalf("apply ΔT: %v", err)
		}
	}
	info, err := graph.Analyze(s2)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return s2, info
}

func reducedHistory(t *testing.T, inst *engine.Instance) []*history.Event {
	t.Helper()
	base := sim.OnlineOrder()
	info, err := graph.Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	return history.ReduceInPlace(info, inst.HistoryEvents())
}

// fastCtx captures the instance facets the conditions consult, from its
// snapshot.
func fastCtx(inst *engine.Instance) *change.Context {
	snap, _ := inst.Snapshot()
	v := inst.View()
	ctx := &change.Context{View: v, Marking: new(state.Marking), Stats: new(history.Stats), Store: snap.Store}
	if err := ctx.Marking.Import(v, snap.Marking); err != nil {
		panic(err)
	}
	ctx.Stats.Import(v.Topology(), snap.Stats)
	return ctx
}

// TestFig1InstanceI1 reproduces the compliant instance of the paper's
// Fig. 1: I1 may migrate, and after state adaptation confirm_order waits
// for the new sync edge while send_questions becomes activated.
func TestFig1InstanceI1(t *testing.T) {
	e := newEngine(t)
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AdvanceOnlineOrderToI1(e, inst); err != nil {
		t.Fatal(err)
	}
	ops := sim.OnlineOrderTypeChange()

	// Fast conditions: compliant.
	if err := compliance.CheckFast(fastCtx(inst), ops); err != nil {
		t.Fatalf("I1 must be fast-compliant: %v", err)
	}

	// Replay criterion: compliant, and the adapted state matches the
	// paper's Fig. 1 (send_questions activated, confirm_order demoted to
	// waiting, pack_goods waiting).
	s2, info := targetSchema(t)
	res, err := compliance.Replay(s2, info, reducedHistory(t, inst))
	if err != nil {
		t.Fatalf("I1 must be replay-compliant: %v", err)
	}
	m := res.Marking
	if m.Node("send_questions") != state.Activated {
		t.Fatalf("send_questions should be activated, is %s", m.Node("send_questions"))
	}
	if m.Node("confirm_order") != state.NotActivated {
		t.Fatalf("confirm_order should wait for the sync edge, is %s", m.Node("confirm_order"))
	}
	if m.Node("pack_goods") != state.NotActivated {
		t.Fatalf("pack_goods should wait for send_questions, is %s", m.Node("pack_goods"))
	}
	if m.Node("compose_order") != state.Completed || m.Node("collect_data") != state.Completed {
		t.Fatal("completed work must be preserved")
	}
}

// TestFig1InstanceI3 reproduces the state conflict of Fig. 1: pack_goods
// already completed, so the insertion point has been passed.
func TestFig1InstanceI3(t *testing.T) {
	e := newEngine(t)
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AdvanceOnlineOrderToI3(e, inst); err != nil {
		t.Fatal(err)
	}
	ops := sim.OnlineOrderTypeChange()
	if err := compliance.CheckFast(fastCtx(inst), ops); err == nil {
		t.Fatal("I3 must not be fast-compliant")
	}
	s2, info := targetSchema(t)
	if _, err := compliance.Replay(s2, info, reducedHistory(t, inst)); err == nil {
		t.Fatal("I3 must not be replay-compliant")
	}
}

func TestReplayRejectsDeletedNodeWithHistory(t *testing.T) {
	e := newEngine(t)
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "get_order", "ann", map[string]any{"out": "o"}); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "collect_data", "ann", nil); err != nil {
		t.Fatal(err)
	}
	// Delete collect_data from the target schema.
	s2 := sim.OnlineOrder()
	if err := (&change.DeleteActivity{ID: "collect_data"}).ApplyTo(s2); err != nil {
		t.Fatal(err)
	}
	info, err := graph.Analyze(s2)
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := compliance.Replay(s2, info, reducedHistory(t, inst))
	if rerr == nil || !strings.Contains(rerr.Error(), "no longer exists") {
		t.Fatalf("expected deleted-node failure, got %v", rerr)
	}
}

func TestReplayVirtualFiringForAutoInsert(t *testing.T) {
	// Insert an *automatic* activity before an already-started successor:
	// the relaxed criterion allows it (the engine fires it retroactively),
	// and the fast condition agrees.
	e := newEngine(t)
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AdvanceOnlineOrderToI3(e, inst); err != nil {
		t.Fatal(err) // pack_goods completed
	}
	auto := &change.SerialInsert{
		Node: &model.Node{ID: "notify", Name: "Notify", Type: model.NodeActivity, Auto: true, Template: "notify"},
		Pred: "compose_order",
		Succ: "pack_goods",
	}
	if err := compliance.CheckFast(fastCtx(inst), []change.Operation{auto}); err != nil {
		t.Fatalf("auto insert must be fast-compliant: %v", err)
	}
	s2 := sim.OnlineOrder()
	if err := auto.ApplyTo(s2); err != nil {
		t.Fatal(err)
	}
	info, err := graph.Analyze(s2)
	if err != nil {
		t.Fatal(err)
	}
	res, rerr := compliance.Replay(s2, info, reducedHistory(t, inst))
	if rerr != nil {
		t.Fatalf("auto insert must be replay-compliant: %v", rerr)
	}
	if res.VirtualFirings == 0 {
		t.Fatal("replay should have fired the inserted node virtually")
	}
	if res.Marking.Node("notify") != state.Completed {
		t.Fatalf("notify should be virtually completed, is %s", res.Marking.Node("notify"))
	}
}

func TestReplayDataConflicts(t *testing.T) {
	e := newEngine(t)
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AdvanceOnlineOrderToI1(e, inst); err != nil {
		t.Fatal(err)
	}
	// New mandatory read on an element that held no value when
	// collect_data started.
	s2 := sim.OnlineOrder()
	if err := s2.AddDataElement(&model.DataElement{ID: "extra", Type: model.TypeString}); err != nil {
		t.Fatal(err)
	}
	if err := s2.AddDataEdge(&model.DataEdge{Activity: "collect_data", Element: "extra", Access: model.Read, Parameter: "x", Mandatory: true}); err != nil {
		t.Fatal(err)
	}
	info, err := graph.Analyze(s2)
	if err != nil {
		t.Fatal(err)
	}
	if _, rerr := compliance.Replay(s2, info, reducedHistory(t, inst)); rerr == nil {
		t.Fatal("mandatory read without value must fail replay")
	}
	// And the corresponding fast condition agrees.
	op := &change.AddDataEdge{Edge: &model.DataEdge{Activity: "collect_data", Element: "order", Access: model.Read, Parameter: "x", Mandatory: true}}
	// order held a value before collect_data started -> compliant.
	if err := compliance.CheckFast(fastCtx(inst), []change.Operation{op}); err != nil {
		t.Fatalf("read of pre-existing value must be compliant: %v", err)
	}

	// New write edge on a completed activity: replay rejects it.
	s3 := sim.OnlineOrder()
	if err := s3.AddDataElement(&model.DataElement{ID: "extra", Type: model.TypeString}); err != nil {
		t.Fatal(err)
	}
	if err := s3.AddDataEdge(&model.DataEdge{Activity: "collect_data", Element: "extra", Access: model.Write, Parameter: "x"}); err != nil {
		t.Fatal(err)
	}
	info3, err := graph.Analyze(s3)
	if err != nil {
		t.Fatal(err)
	}
	if _, rerr := compliance.Replay(s3, info3, reducedHistory(t, inst)); rerr == nil {
		t.Fatal("missing output of completed activity must fail replay")
	}
	opW := &change.AddDataEdge{Edge: &model.DataEdge{Activity: "collect_data", Element: "order", Access: model.Write, Parameter: "x"}}
	if err := compliance.CheckFast(fastCtx(inst), []change.Operation{opW}); err == nil {
		t.Fatal("fast condition must reject write edge on completed activity")
	}
}

func TestReplayRejectsVanishedBranch(t *testing.T) {
	// An XOR split completed with a decision whose branch the change
	// removes.
	b := model.NewBuilder("branches")
	ch := b.Choice("",
		b.Activity("x", "X", model.WithRole("worker")),
		b.Activity("y", "Y", model.WithRole("worker")),
	)
	s, err := b.Build(ch)
	if err != nil {
		t.Fatal(err)
	}
	var split string
	for _, n := range s.Nodes() {
		if n.Type == model.NodeXORSplit {
			split = n.ID
		}
	}
	e := engine.New(sim.Org())
	if err := e.Deploy(s); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("branches", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), split, "", nil, engine.WithDecision(1)); err != nil {
		t.Fatal(err)
	}
	// Target schema re-codes the chosen branch: decision 1 vanishes.
	s2 := s.Clone()
	for _, edge := range s2.Edges() {
		if edge.From == split && edge.Code == 1 {
			edge.Code = 7
		}
	}
	info, err := graph.Analyze(s2)
	if err != nil {
		t.Fatal(err)
	}
	baseInfo, err := graph.Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := compliance.Replay(s2, info, history.ReduceInPlace(baseInfo, inst.HistoryEvents()))
	if rerr == nil || !strings.Contains(rerr.Error(), "no longer exists") {
		t.Fatalf("expected vanished-branch failure, got %v", rerr)
	}
}

func TestReplayAdaptationMatchesIncrementalAdapt(t *testing.T) {
	// For an unchanged schema, replaying the full history must yield the
	// exact same marking the engine holds.
	e := newEngine(t)
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AdvanceOnlineOrderToI1(e, inst); err != nil {
		t.Fatal(err)
	}
	base := sim.OnlineOrder()
	info, err := graph.Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	res, rerr := compliance.Replay(base, info, reducedHistory(t, inst))
	if rerr != nil {
		t.Fatal(rerr)
	}
	live := inst.MarkingSnapshot()
	for _, id := range base.NodeIDs() {
		if got, want := res.Marking.Node(id), live.Node(id); got != want {
			t.Errorf("node %s: replay %s, live %s", id, got, want)
		}
	}
}
