package change_test

import (
	"testing"

	"adept2/internal/change"
	"adept2/internal/compliance"
	"adept2/internal/engine"
	"adept2/internal/graph"
	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/rollback"
	"adept2/internal/sim"
	"adept2/internal/state"
	"adept2/internal/storage"
	"adept2/internal/verify"
)

// fastCtx captures the instance facets the conditions consult.
func fastCtx(t *testing.T, inst *engine.Instance) *change.Context {
	t.Helper()
	snap, _ := inst.Snapshot()
	v := inst.View()
	ctx := &change.Context{View: v, Marking: new(state.Marking), Stats: new(history.Stats), Store: snap.Store}
	if err := ctx.Marking.Import(v, snap.Marking); err != nil {
		t.Fatal(err)
	}
	ctx.Stats.Import(v.Topology(), snap.Stats)
	return ctx
}

// stateI1 returns an instance in the Fig. 1 I1 state (confirm_order and
// pack_goods activated, everything before completed).
func stateI1(t *testing.T) (*engine.Engine, *engine.Instance) {
	t.Helper()
	e := newEngine(t)
	inst := freshInstance(t, e)
	if err := sim.AdvanceOnlineOrderToI1(e, inst); err != nil {
		t.Fatal(err)
	}
	return e, inst
}

// stateI3 additionally has pack_goods completed.
func stateI3(t *testing.T) (*engine.Engine, *engine.Instance) {
	t.Helper()
	e := newEngine(t)
	inst := freshInstance(t, e)
	if err := sim.AdvanceOnlineOrderToI3(e, inst); err != nil {
		t.Fatal(err)
	}
	return e, inst
}

func manualNode(id string) *model.Node {
	return &model.Node{ID: id, Name: id, Type: model.NodeActivity, Role: "sales", Template: id}
}

func autoNode(id string) *model.Node {
	return &model.Node{ID: id, Name: id, Type: model.NodeActivity, Auto: true, Template: id}
}

func TestSerialInsertCondition(t *testing.T) {
	_, i1 := stateI1(t)
	_, i3 := stateI3(t)

	// Successor not started: compliant.
	op := &change.SerialInsert{Node: manualNode("x"), Pred: "compose_order", Succ: "pack_goods"}
	if err := op.FastCompliance(fastCtx(t, i1)); err != nil {
		t.Fatalf("I1: %v", err)
	}
	// Successor started: conflict.
	if err := op.FastCompliance(fastCtx(t, i3)); err == nil {
		t.Fatal("I3 must conflict")
	}
	// Automatic node: always compliant (replay fires it virtually).
	auto := &change.SerialInsert{Node: autoNode("x"), Pred: "compose_order", Succ: "pack_goods"}
	if err := auto.FastCompliance(fastCtx(t, i3)); err != nil {
		t.Fatalf("auto insert on I3: %v", err)
	}
}

func TestSerialInsertIntoSkippedRegion(t *testing.T) {
	// Build an XOR schema, choose the other branch, then insert into the
	// dead branch: compliant even though the join already fired.
	b := model.NewBuilder("skip")
	ch := b.Choice("",
		b.Seq(b.Activity("x1", "X1", model.WithRole("worker")), b.Activity("x2", "X2", model.WithRole("worker"))),
		b.Activity("y", "Y", model.WithRole("worker")),
	)
	tail := b.Activity("tail", "Tail", model.WithRole("worker"))
	s, err := b.Build(b.Seq(ch, tail))
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
	inst, err := e.CreateInstance("skip", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), split, "", nil, engine.WithDecision(1)); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "y", "ann", nil); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "tail", "ann", nil); err != nil {
		t.Fatal(err)
	}
	// x1 and x2 are skipped; tail (beyond the join) completed. Inserting
	// between x1 and x2 is compliant — dead region.
	op := &change.SerialInsert{Node: manualNode("nx"), Pred: "x1", Succ: "x2"}
	if err := op.FastCompliance(fastCtx(t, inst)); err != nil {
		t.Fatalf("insert into skipped region: %v", err)
	}
}

func TestParallelInsertCondition(t *testing.T) {
	_, i1 := stateI1(t)
	_, i3 := stateI3(t)
	// Region collect_data..confirm_order; the node behind the region is
	// the AND join, which has not fired in I1.
	op := &change.ParallelInsert{Node: manualNode("x"), From: "collect_data", To: "confirm_order"}
	if err := op.FastCompliance(fastCtx(t, i1)); err != nil {
		t.Fatalf("I1: %v", err)
	}
	// Around compose_order..pack_goods in I3: pack_goods completed but the
	// AND join still waits on confirm_order — still compliant!
	op2 := &change.ParallelInsert{Node: manualNode("x"), From: "compose_order", To: "pack_goods"}
	if err := op2.FastCompliance(fastCtx(t, i3)); err != nil {
		t.Fatalf("I3 with unfired join: %v", err)
	}
	// Once the join has fired (deliver started), the manual insert
	// conflicts.
	e, late := stateI3(t)
	if err := e.CompleteActivity(late.ID(), "confirm_order", "ann", nil); err != nil {
		t.Fatal(err)
	}
	if err := e.StartActivityAt(late.ID(), "deliver_goods", "bob", 0); err != nil {
		t.Fatal(err)
	}
	if err := op2.FastCompliance(fastCtx(t, late)); err == nil {
		t.Fatal("fired join must conflict for manual insert")
	}
	// The same insert with an automatic activity is compliant.
	autoOp := &change.ParallelInsert{Node: autoNode("x"), From: "compose_order", To: "pack_goods"}
	if err := autoOp.FastCompliance(fastCtx(t, late)); err != nil {
		t.Fatalf("auto parallel insert: %v", err)
	}
}

func TestConditionalInsertCondition(t *testing.T) {
	// Schema with an int element routing the conditional insert.
	e := newEngine(t)
	inst := freshInstance(t, e)
	// get_order writes "order"; add a flag element via ad-hoc data ops.
	if err := change.ApplyAdHoc(inst,
		&change.AddDataElement{Element: &model.DataElement{ID: "flag", Type: model.TypeInt}},
		&change.AddDataEdge{Edge: &model.DataEdge{Activity: "get_order", Element: "flag", Access: model.Write, Parameter: "flag"}},
	); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "get_order", "ann", map[string]any{"out": "o", "flag": 0}); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "collect_data", "ann", nil); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "confirm_order", "ann", nil); err != nil {
		t.Fatal(err)
	}
	// confirm_order started with flag=0: the condition routes around the
	// inserted activity -> compliant even though succ started.
	op := &change.ConditionalInsert{Node: manualNode("x"), Pred: "collect_data", Succ: "confirm_order", DecisionElement: "flag"}
	if err := op.FastCompliance(fastCtx(t, inst)); err != nil {
		t.Fatalf("flag=0: %v", err)
	}

	// Same scenario with flag=1: the condition selects the activity ->
	// conflict for a manual node, fine for an automatic one.
	inst2 := freshInstance(t, e)
	if err := change.ApplyAdHoc(inst2,
		&change.AddDataElement{Element: &model.DataElement{ID: "flag", Type: model.TypeInt}},
		&change.AddDataEdge{Edge: &model.DataEdge{Activity: "get_order", Element: "flag", Access: model.Write, Parameter: "flag"}},
	); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst2.ID(), "get_order", "ann", map[string]any{"out": "o", "flag": 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst2.ID(), "collect_data", "ann", nil); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst2.ID(), "confirm_order", "ann", nil); err != nil {
		t.Fatal(err)
	}
	if err := op.FastCompliance(fastCtx(t, inst2)); err == nil {
		t.Fatal("flag=1 with manual node must conflict")
	}
	autoOp := &change.ConditionalInsert{Node: autoNode("x"), Pred: "collect_data", Succ: "confirm_order", DecisionElement: "flag"}
	if err := autoOp.FastCompliance(fastCtx(t, inst2)); err != nil {
		t.Fatalf("flag=1 with auto node: %v", err)
	}
	// Succ not started at all: compliant regardless.
	fresh := freshInstance(t, e)
	if err := op.FastCompliance(fastCtx(t, fresh)); err != nil {
		t.Fatalf("fresh: %v", err)
	}
}

func TestDeleteActivityCondition(t *testing.T) {
	_, i1 := stateI1(t)
	// Started activity: conflict; activated one: fine.
	if err := (&change.DeleteActivity{ID: "collect_data"}).FastCompliance(fastCtx(t, i1)); err == nil {
		t.Fatal("completed activity must conflict")
	}
	if err := (&change.DeleteActivity{ID: "confirm_order"}).FastCompliance(fastCtx(t, i1)); err != nil {
		t.Fatalf("activated activity: %v", err)
	}
}

func TestMoveActivityCondition(t *testing.T) {
	_, i1 := stateI1(t)
	// Unstarted activity onto an unstarted position: fine.
	mv := &change.MoveActivity{ID: "pack_goods", NewPred: "collect_data", NewSucc: "confirm_order"}
	if err := mv.FastCompliance(fastCtx(t, i1)); err != nil {
		t.Fatalf("unstarted move: %v", err)
	}
	// Started activity whose history replays at the new position: moving
	// collect_data (started after get_order completed, completed before
	// confirm_order started) directly behind get_order... its new
	// successor is the AND split, which started *before* collect_data
	// completed -> conflict.
	mv2 := &change.MoveActivity{ID: "collect_data", NewPred: "get_order", NewSucc: "and-split_1"}
	if err := mv2.FastCompliance(fastCtx(t, i1)); err == nil {
		t.Fatal("expected conflict: new successor started before the move target completed")
	}
	// Started activity onto a not-yet-started position whose new pred
	// completed before it started: compose_order between collect_data and
	// confirm_order? collect_data completed (seq 6) before compose_order
	// started (seq 7): compliant.
	mv3 := &change.MoveActivity{ID: "compose_order", NewPred: "collect_data", NewSucc: "confirm_order"}
	if err := mv3.FastCompliance(fastCtx(t, i1)); err != nil {
		t.Fatalf("replayable move of started activity: %v", err)
	}
	// Started activity whose new pred never completed: conflict.
	mv4 := &change.MoveActivity{ID: "collect_data", NewPred: "confirm_order", NewSucc: "and-join_2"}
	if err := mv4.FastCompliance(fastCtx(t, i1)); err == nil {
		t.Fatal("expected conflict: new pred not completed before the activity started")
	}
}

func TestInsertSyncEdgeCondition(t *testing.T) {
	_, i1 := stateI1(t)
	// Target not started: fine.
	if err := (&change.InsertSyncEdge{From: "confirm_order", To: "pack_goods"}).FastCompliance(fastCtx(t, i1)); err != nil {
		t.Fatalf("unstarted target: %v", err)
	}
	// Target started, source completed before: collect_data completed
	// (seq 6) before compose_order started (seq 7).
	if err := (&change.InsertSyncEdge{From: "collect_data", To: "compose_order"}).FastCompliance(fastCtx(t, i1)); err != nil {
		t.Fatalf("ordered completion: %v", err)
	}
	// Target started before source completed: conflict.
	if err := (&change.InsertSyncEdge{From: "confirm_order", To: "compose_order"}).FastCompliance(fastCtx(t, i1)); err == nil {
		t.Fatal("expected conflict: target ran before source")
	}
	// Deleting sync edges never conflicts.
	if err := (&change.DeleteSyncEdge{From: "a", To: "b"}).FastCompliance(fastCtx(t, i1)); err != nil {
		t.Fatal("delete sync edge must always be compliant")
	}
}

// TestSyncEdgeFromSkippedSource: InsertSyncEdge's fast condition gives
// the verdict replay gives on the changed view. In every history the XOR
// split chooses y, so x is skipped, and then z is started; the histories
// differ in the ad-hoc changes made after that. A sync edge from a node
// that was skipped before z started is compliant, whenever the node came
// to be on the dead branch; one from y, which has not run, is not.
func TestSyncEdgeFromSkippedSource(t *testing.T) {
	for _, tc := range []struct {
		name     string
		changes  func(t *testing.T, inst *engine.Instance, join string)
		from     string
		accepted bool
	}{
		{name: "plain", from: "x", accepted: true},
		{name: "unfinished source", from: "y"},
		{
			name: "deleted and undone",
			changes: func(t *testing.T, inst *engine.Instance, _ string) {
				if err := change.ApplyAdHoc(inst, &change.DeleteActivity{ID: "x"}); err != nil {
					t.Fatal(err)
				}
				if err := rollback.UndoLast(inst); err != nil {
					t.Fatal(err)
				}
			},
			from:     "x",
			accepted: true,
		},
		{
			name: "inserted into the dead branch",
			changes: func(t *testing.T, inst *engine.Instance, join string) {
				if err := change.ApplyAdHoc(inst, &change.SerialInsert{Node: manualNode("w"), Pred: "x", Succ: join}); err != nil {
					t.Fatal(err)
				}
			},
			from:     "w",
			accepted: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := model.NewBuilder("skipsync")
			par := b.Parallel(
				b.Seq(
					b.Choice("", b.Activity("x", "X", model.WithRole("worker")), b.Activity("y", "Y", model.WithRole("worker"))),
					b.Activity("after", "After", model.WithRole("worker")),
				),
				b.Activity("z", "Z", model.WithRole("worker")),
			)
			s, err := b.Build(par)
			if err != nil {
				t.Fatal(err)
			}
			var split, join string
			for _, n := range s.Nodes() {
				switch n.Type {
				case model.NodeXORSplit:
					split = n.ID
				case model.NodeXORJoin:
					join = n.ID
				}
			}
			e := engine.New(sim.Org())
			if err := e.Deploy(s); err != nil {
				t.Fatal(err)
			}
			inst, err := e.CreateInstance("skipsync", 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.CompleteActivity(inst.ID(), split, "", nil, engine.WithDecision(1)); err != nil {
				t.Fatal(err)
			}
			if err := e.StartActivityAt(inst.ID(), "z", "ann", 0); err != nil {
				t.Fatal(err)
			}
			if tc.changes != nil {
				tc.changes(t, inst, join)
			}

			op := &change.InsertSyncEdge{From: tc.from, To: "z"}
			fast := op.FastCompliance(fastCtx(t, inst))
			view := inst.View()
			target, err := storage.Materialize(view, "target", view.TypeName(), view.Version())
			if err != nil {
				t.Fatal(err)
			}
			if err := op.ApplyTo(target); err != nil {
				t.Fatal(err)
			}
			res := verify.Check(target)
			if !res.OK() {
				t.Fatal(res.Err())
			}
			info, err := graph.Analyze(view)
			if err != nil {
				t.Fatal(err)
			}
			_, replay := compliance.Replay(target, res.Blocks, history.ReduceInPlace(info, inst.HistoryEvents()))
			if (fast == nil) != tc.accepted || (replay == nil) != tc.accepted {
				t.Fatalf("%s: fast condition %v, replay %v, want accepted=%v", op, fast, replay, tc.accepted)
			}
		})
	}
}

func TestDataEdgeConditions(t *testing.T) {
	_, i1 := stateI1(t)
	ctx := fastCtx(t, i1)
	// Write edge on a completed activity: conflict.
	w := &change.AddDataEdge{Edge: &model.DataEdge{Activity: "collect_data", Element: "order", Access: model.Write, Parameter: "p"}}
	if err := w.FastCompliance(ctx); err == nil {
		t.Fatal("write edge on completed activity must conflict")
	}
	// Write edge on an activated activity: fine.
	w2 := &change.AddDataEdge{Edge: &model.DataEdge{Activity: "confirm_order", Element: "order", Access: model.Write, Parameter: "p"}}
	if err := w2.FastCompliance(ctx); err != nil {
		t.Fatalf("write edge on activated activity: %v", err)
	}
	// Mandatory read on a started activity whose element held a value at
	// start: fine (order written by get_order before collect_data).
	r := &change.AddDataEdge{Edge: &model.DataEdge{Activity: "collect_data", Element: "order", Access: model.Read, Parameter: "p", Mandatory: true}}
	if err := r.FastCompliance(ctx); err != nil {
		t.Fatalf("read of available value: %v", err)
	}
	// Optional read never conflicts.
	r2 := &change.AddDataEdge{Edge: &model.DataEdge{Activity: "collect_data", Element: "order", Access: model.Read, Parameter: "p2"}}
	if err := r2.FastCompliance(ctx); err != nil {
		t.Fatalf("optional read: %v", err)
	}
	// Deleting the write edge of a completed activity: conflict; of an
	// unstarted one: fine.
	dw := &change.DeleteDataEdge{Key: model.DataEdgeKey{Activity: "get_order", Element: "order", Access: model.Write, Parameter: "out"}}
	if err := dw.FastCompliance(ctx); err == nil {
		t.Fatal("deleting executed write must conflict")
	}
	dr := &change.DeleteDataEdge{Key: model.DataEdgeKey{Activity: "confirm_order", Element: "order", Access: model.Read, Parameter: "in"}}
	if err := dr.FastCompliance(ctx); err != nil {
		t.Fatalf("deleting read edge: %v", err)
	}
	// AddDataElement never conflicts.
	if err := (&change.AddDataElement{Element: &model.DataElement{ID: "n", Type: model.TypeInt}}).FastCompliance(ctx); err != nil {
		t.Fatal("add element must always be compliant")
	}
}

func TestAsOperationsRejectsForeignOps(t *testing.T) {
	ops, err := change.AsOperations(nil)
	if err != nil || len(ops) != 0 {
		t.Fatal("empty bias")
	}
	if _, err := change.AsOperations([]engine.BiasOp{fakeBias{}}); err == nil {
		t.Fatal("foreign bias op must be rejected")
	}
}

type fakeBias struct{}

func (fakeBias) OpName() string                  { return "fake" }
func (fakeBias) ApplyTo(model.MutableView) error { return nil }
func (fakeBias) String() string                  { return "fake" }
