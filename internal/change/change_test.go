package change_test

import (
	"strings"
	"testing"

	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/model"
	"adept2/internal/sim"
	"adept2/internal/state"
	"adept2/internal/storage"
	"adept2/internal/verify"
)

func newEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(sim.Org())
	if err := e.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	return e
}

func freshInstance(t *testing.T, e *engine.Engine) *engine.Instance {
	t.Helper()
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	return inst
}

func TestSerialInsertOnSchema(t *testing.T) {
	s := sim.OnlineOrder()
	op := &change.SerialInsert{
		Node: &model.Node{ID: "x", Name: "X", Type: model.NodeActivity, Role: "sales", Template: "x"},
		Pred: "compose_order",
		Succ: "pack_goods",
	}
	if err := op.ApplyTo(s); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !s.HasEdge(model.EdgeKey{From: "compose_order", To: "x", Type: model.EdgeControl}) ||
		!s.HasEdge(model.EdgeKey{From: "x", To: "pack_goods", Type: model.EdgeControl}) {
		t.Fatal("rewiring incomplete")
	}
	if s.HasEdge(model.EdgeKey{From: "compose_order", To: "pack_goods", Type: model.EdgeControl}) {
		t.Fatal("old edge not removed")
	}
	if err := verify.Err(s); err != nil {
		t.Fatalf("changed schema must verify: %v", err)
	}
	if op.InsertedTemplate() != "x" {
		t.Fatal("InsertedTemplate")
	}
	// Re-applying fails (node exists).
	if err := op.ApplyTo(s); err == nil {
		t.Fatal("duplicate apply must fail")
	}
	// Precheck failures.
	bad := &change.SerialInsert{Node: &model.Node{ID: "y", Type: model.NodeActivity}, Pred: "pack_goods", Succ: "compose_order"}
	if err := bad.Precheck(s); err == nil {
		t.Fatal("no such edge: precheck must fail")
	}
	if err := (&change.SerialInsert{}).Precheck(s); err == nil {
		t.Fatal("empty node: precheck must fail")
	}
}

func TestParallelInsertOnSchema(t *testing.T) {
	s := sim.OnlineOrder()
	op := &change.ParallelInsert{
		Node: &model.Node{ID: "x", Name: "X", Type: model.NodeActivity, Role: "sales", Template: "x"},
		From: "collect_data",
		To:   "confirm_order",
	}
	if err := op.ApplyTo(s); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := verify.Err(s); err != nil {
		t.Fatalf("changed schema must verify: %v", err)
	}
	// The new AND block wraps the region: x runs parallel to
	// collect_data -> confirm_order.
	if _, ok := s.Node("x_psplit"); !ok {
		t.Fatal("split gateway missing")
	}
	if !s.HasEdge(model.EdgeKey{From: "x_psplit", To: "x", Type: model.EdgeControl}) {
		t.Fatal("parallel branch missing")
	}

	// Non-SESE regions are rejected: collect_data..pack_goods spans
	// branches.
	bad := &change.ParallelInsert{
		Node: &model.Node{ID: "y", Type: model.NodeActivity, Role: "sales"},
		From: "collect_data",
		To:   "pack_goods",
	}
	if err := bad.Precheck(sim.OnlineOrder()); err == nil {
		t.Fatal("non-SESE region must be rejected")
	}
	// Start/end regions are rejected.
	bad2 := &change.ParallelInsert{
		Node: &model.Node{ID: "y", Type: model.NodeActivity, Role: "sales"},
		From: "start",
		To:   "get_order",
	}
	if err := bad2.Precheck(sim.OnlineOrder()); err == nil {
		t.Fatal("region including start must be rejected")
	}
}

func TestConditionalInsertOnSchema(t *testing.T) {
	s := sim.OnlineOrder()
	if err := s.AddDataElement(&model.DataElement{ID: "flag", Type: model.TypeInt}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDataEdge(&model.DataEdge{Activity: "get_order", Element: "flag", Access: model.Write, Parameter: "flag"}); err != nil {
		t.Fatal(err)
	}
	op := &change.ConditionalInsert{
		Node:            &model.Node{ID: "x", Name: "X", Type: model.NodeActivity, Role: "sales", Template: "x"},
		Pred:            "compose_order",
		Succ:            "pack_goods",
		DecisionElement: "flag",
	}
	if err := op.ApplyTo(s); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := verify.Err(s); err != nil {
		t.Fatalf("changed schema must verify: %v", err)
	}
	split, ok := s.Node("x_csplit")
	if !ok || split.DecisionElement != "flag" || !split.Auto {
		t.Fatalf("xor split config: %+v", split)
	}
	// Unknown element rejected.
	bad := &change.ConditionalInsert{Node: &model.Node{ID: "y", Type: model.NodeActivity}, Pred: "a", Succ: "b", DecisionElement: "zz"}
	if err := bad.Precheck(sim.OnlineOrder()); err == nil {
		t.Fatal("unknown decision element must fail precheck")
	}
}

func TestDeleteActivityOnSchema(t *testing.T) {
	s := sim.OnlineOrder()
	op := &change.DeleteActivity{ID: "pack_goods"}
	if err := op.ApplyTo(s); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if _, ok := s.Node("pack_goods"); ok {
		t.Fatal("node still present")
	}
	if err := verify.Err(s); err != nil {
		t.Fatalf("changed schema must verify: %v", err)
	}
	// Deleting gateways or unknown nodes fails.
	if err := (&change.DeleteActivity{ID: "zz"}).Precheck(s); err == nil {
		t.Fatal("unknown node must fail")
	}
	var split string
	for _, n := range s.Nodes() {
		if n.Type == model.NodeANDSplit {
			split = n.ID
		}
	}
	if err := (&change.DeleteActivity{ID: split}).Precheck(s); err == nil {
		t.Fatal("gateway deletion must fail")
	}
	// Deleting a guaranteed data supplier leaves a missing-data schema:
	// callers (ApplyAdHoc / DeriveVersion) verify and reject.
	s2 := sim.OnlineOrder()
	if err := (&change.DeleteActivity{ID: "get_order"}).ApplyTo(s2); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if res := verify.Check(s2); res.OK() {
		t.Fatal("deleting the order writer must break data flow verification")
	}
}

func TestMoveActivityOnSchema(t *testing.T) {
	s := sim.OnlineOrder()
	// Move deliver_goods between get_order and the AND split? That would
	// break nothing structurally — but simpler: move collect_data behind
	// confirm_order.
	op := &change.MoveActivity{ID: "collect_data", NewPred: "confirm_order", NewSucc: "and-join_2"}
	// Find the actual join ID.
	var join string
	for _, n := range s.Nodes() {
		if n.Type == model.NodeANDJoin {
			join = n.ID
		}
	}
	op.NewSucc = join
	if err := op.ApplyTo(s); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := verify.Err(s); err != nil {
		t.Fatalf("changed schema must verify: %v", err)
	}
	if got := model.OutControlEdges(s, "confirm_order"); len(got) != 1 || got[0].To != "collect_data" {
		t.Fatalf("collect_data not at new position: %v", got)
	}
	if err := (&change.MoveActivity{ID: "zz", NewPred: "a", NewSucc: "b"}).Precheck(s); err == nil {
		t.Fatal("unknown node must fail")
	}
	if err := (&change.MoveActivity{ID: "confirm_order", NewPred: "confirm_order", NewSucc: join}).Precheck(s); err == nil {
		t.Fatal("self-neighbor must fail")
	}
}

func TestSyncEdgeOps(t *testing.T) {
	s := sim.OnlineOrder()
	ins := &change.InsertSyncEdge{From: "collect_data", To: "compose_order"}
	if err := ins.ApplyTo(s); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := verify.Err(s); err != nil {
		t.Fatalf("sync edge schema must verify: %v", err)
	}
	if err := ins.Precheck(s); err == nil {
		t.Fatal("duplicate sync edge must fail")
	}
	del := &change.DeleteSyncEdge{From: "collect_data", To: "compose_order"}
	if err := del.ApplyTo(s); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := del.Precheck(s); err == nil {
		t.Fatal("deleting missing sync edge must fail")
	}
}

func TestDataFlowOps(t *testing.T) {
	s := sim.OnlineOrder()
	addElem := &change.AddDataElement{Element: &model.DataElement{ID: "note", Type: model.TypeString}}
	if err := addElem.ApplyTo(s); err != nil {
		t.Fatalf("add element: %v", err)
	}
	if err := addElem.Precheck(s); err == nil {
		t.Fatal("duplicate element must fail")
	}
	addW := &change.AddDataEdge{Edge: &model.DataEdge{Activity: "collect_data", Element: "note", Access: model.Write, Parameter: "note"}}
	if err := addW.ApplyTo(s); err != nil {
		t.Fatalf("add write edge: %v", err)
	}
	addR := &change.AddDataEdge{Edge: &model.DataEdge{Activity: "confirm_order", Element: "note", Access: model.Read, Parameter: "note", Mandatory: true}}
	if err := addR.ApplyTo(s); err != nil {
		t.Fatalf("add read edge: %v", err)
	}
	if err := verify.Err(s); err != nil {
		t.Fatalf("data flow change must verify: %v", err)
	}
	delW := &change.DeleteDataEdge{Key: model.DataEdgeKey{Activity: "collect_data", Element: "note", Access: model.Write, Parameter: "note"}}
	if err := delW.Precheck(s); err != nil {
		t.Fatalf("delete precheck: %v", err)
	}
	if err := delW.ApplyTo(s); err != nil {
		t.Fatalf("delete write edge: %v", err)
	}
	// Now confirm_order's mandatory read has no supplier.
	if res := verify.Check(s); res.OK() {
		t.Fatal("removing the only writer must break verification")
	}
}

func TestApplyAdHocCreatesBias(t *testing.T) {
	e := newEngine(t)
	inst := freshInstance(t, e)
	if err := e.CompleteActivity(inst.ID(), "get_order", "ann", map[string]any{"out": "o1"}); err != nil {
		t.Fatal(err)
	}
	ops := sim.OnlineOrderBiasI2()
	if err := change.ApplyAdHoc(inst, ops...); err != nil {
		t.Fatalf("ad-hoc change: %v", err)
	}
	if !inst.Biased() || len(inst.BiasOps()) != 2 {
		t.Fatal("bias not recorded")
	}
	v := inst.View()
	if _, ok := v.Node("send_brochure"); !ok {
		t.Fatal("inserted activity missing from view")
	}
	if !v.HasEdge(model.EdgeKey{From: "confirm_order", To: "compose_order", Type: model.EdgeSync}) {
		t.Fatal("bias sync edge missing")
	}
	// The base schema is untouched (hybrid overlay).
	base, _ := e.Schema("online_order", 1)
	if _, ok := base.Node("send_brochure"); ok {
		t.Fatal("bias leaked into the deployed schema")
	}
	// State adaptation: compose_order now waits for confirm_order's sync.
	if got := inst.NodeState("compose_order"); got != state.NotActivated {
		t.Fatalf("compose_order should wait for sync, is %s", got)
	}
	// send_brochure sits after the still-activated collect_data.
	if got := inst.NodeState("send_brochure"); got != state.NotActivated {
		t.Fatalf("send_brochure should be not-activated, is %s", got)
	}
	// The instance still completes.
	if err := e.CompleteActivity(inst.ID(), "collect_data", "ann", nil); err != nil {
		t.Fatal(err)
	}
	if got := inst.NodeState("send_brochure"); got != state.Activated {
		t.Fatalf("send_brochure should be activated now, is %s", got)
	}
	if err := e.CompleteActivity(inst.ID(), "send_brochure", "ann", nil); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "confirm_order", "ann", nil); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "compose_order", "bob", nil); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "pack_goods", "bob", nil); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "deliver_goods", "bob", nil); err != nil {
		t.Fatal(err)
	}
	if !inst.Done() {
		t.Fatal("biased instance should complete")
	}
}

func TestApplyAdHocRejectsStructuralConflicts(t *testing.T) {
	e := newEngine(t)
	inst := freshInstance(t, e)
	// A sync edge in both directions creates a deadlock cycle.
	if err := change.ApplyAdHoc(inst, &change.InsertSyncEdge{From: "collect_data", To: "compose_order"}); err != nil {
		t.Fatalf("first sync edge: %v", err)
	}
	err := change.ApplyAdHoc(inst, &change.InsertSyncEdge{From: "compose_order", To: "collect_data"})
	var serr *change.StructuralError
	if err == nil {
		t.Fatal("expected structural conflict")
	}
	if !errorsAs(err, &serr) {
		t.Fatalf("expected StructuralError, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock explanation: %v", err)
	}
	// Only the first op is recorded.
	if len(inst.BiasOps()) != 1 {
		t.Fatalf("failed change must not be recorded, bias=%v", inst.BiasOps())
	}
}

func TestApplyAdHocRejectsStateConflicts(t *testing.T) {
	e := newEngine(t)
	inst := freshInstance(t, e)
	if err := sim.AdvanceOnlineOrderToI3(e, inst); err != nil {
		t.Fatal(err)
	}
	// pack_goods already completed: inserting before it is a state
	// conflict.
	err := change.ApplyAdHoc(inst, sim.OnlineOrderTypeChange()...)
	var cerr *change.ComplianceError
	if err == nil || !errorsAs(err, &cerr) {
		t.Fatalf("expected ComplianceError, got %v", err)
	}
	if inst.Biased() {
		t.Fatal("rejected change must leave instance unbiased")
	}
	// Deleting a completed activity is equally rejected (collect_data has
	// no data edges, so the conflict is purely state-related).
	err = change.ApplyAdHoc(inst, &change.DeleteActivity{ID: "collect_data"})
	if err == nil || !errorsAs(err, &cerr) {
		t.Fatalf("expected ComplianceError for delete, got %v", err)
	}
}

func TestApplyAdHocOnFinishedInstance(t *testing.T) {
	e := newEngine(t)
	inst := freshInstance(t, e)
	for _, step := range []struct {
		node, user string
		out        map[string]any
	}{
		{"get_order", "ann", map[string]any{"out": "o"}},
		{"collect_data", "ann", nil},
		{"confirm_order", "ann", nil},
		{"compose_order", "bob", nil},
		{"pack_goods", "bob", nil},
		{"deliver_goods", "bob", nil},
	} {
		if err := e.CompleteActivity(inst.ID(), step.node, step.user, step.out); err != nil {
			t.Fatal(err)
		}
	}
	if err := change.ApplyAdHoc(inst, sim.OnlineOrderBiasI2()...); err == nil {
		t.Fatal("changing a finished instance must fail")
	}
	if err := change.ApplyAdHoc(inst); err == nil {
		t.Fatal("empty op list must fail")
	}
}

// TestApplyAdHocAcrossStorageStrategies builds the three representations
// of Fig. 2 from one changed instance's delta — the overlay it holds, a
// full copy of that view, and its recorded ops re-applied to the base on
// access — and holds each to the ops applied to a plain copy of the schema.
func TestApplyAdHocAcrossStorageStrategies(t *testing.T) {
	e := newEngine(t)
	inst := freshInstance(t, e)
	if err := change.ApplyAdHoc(inst, sim.OnlineOrderBiasI2()...); err != nil {
		t.Fatalf("ad-hoc change: %v", err)
	}
	if fp := inst.Footprint(); fp.BiasBytes == 0 {
		t.Fatal("bias footprint should be non-zero")
	}
	ref := sim.OnlineOrder()
	for _, op := range sim.OnlineOrderBiasI2() {
		if err := op.ApplyTo(ref); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		view func() (model.SchemaView, error)
	}{
		{"hybrid", func() (model.SchemaView, error) { return inst.View(), nil }},
		{"full-copy", func() (model.SchemaView, error) {
			v := inst.View()
			return storage.Materialize(v, v.SchemaID(), v.TypeName(), v.Version())
		}},
		{"on-the-fly", func() (model.SchemaView, error) {
			s := sim.OnlineOrder()
			for _, op := range inst.BiasOps() {
				if err := op.ApplyTo(s); err != nil {
					return nil, err
				}
			}
			return s, nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			v, err := c.view()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := v.Node("send_brochure"); !ok {
				t.Fatal("inserted activity missing")
			}
			if !model.Equal(v, ref) {
				t.Fatalf("%s view differs from reference application", c.name)
			}
		})
	}
}

func TestOpsJSONRoundTrip(t *testing.T) {
	ops := []change.Operation{
		&change.SerialInsert{Node: &model.Node{ID: "x", Name: "X", Type: model.NodeActivity, Role: "r", Template: "x"}, Pred: "a", Succ: "b"},
		&change.ParallelInsert{Node: &model.Node{ID: "y", Type: model.NodeActivity}, From: "a", To: "b"},
		&change.ConditionalInsert{Node: &model.Node{ID: "z", Type: model.NodeActivity}, Pred: "a", Succ: "b", DecisionElement: "d"},
		&change.DeleteActivity{ID: "a"},
		&change.MoveActivity{ID: "a", NewPred: "b", NewSucc: "c"},
		&change.InsertSyncEdge{From: "a", To: "b"},
		&change.DeleteSyncEdge{From: "a", To: "b"},
		&change.AddDataElement{Element: &model.DataElement{ID: "d", Type: model.TypeInt}},
		&change.AddDataEdge{Edge: &model.DataEdge{Activity: "a", Element: "d", Access: model.Write, Parameter: "p"}},
		&change.DeleteDataEdge{Key: model.DataEdgeKey{Activity: "a", Element: "d", Access: model.Read, Parameter: "p"}},
	}
	blob, err := change.MarshalOps(ops)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	back, err := change.UnmarshalOps(blob)
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back) != len(ops) {
		t.Fatalf("length mismatch: %d", len(back))
	}
	for i := range ops {
		if ops[i].OpName() != back[i].OpName() || ops[i].String() != back[i].String() {
			t.Fatalf("op %d mismatch: %s vs %s", i, ops[i], back[i])
		}
	}
	if _, err := change.UnmarshalOps([]byte(`[{"op":"bogus","args":{}}]`)); err == nil {
		t.Fatal("unknown op must fail")
	}
	if _, err := change.UnmarshalOps([]byte(`{`)); err == nil {
		t.Fatal("bad JSON must fail")
	}
}

func TestInsertedTemplates(t *testing.T) {
	got := change.InsertedTemplates(sim.OnlineOrderTypeChange())
	if !got["send_questions"] || len(got) != 1 {
		t.Fatalf("InsertedTemplates = %v", got)
	}
}

// errorsAs is a tiny local wrapper to avoid importing errors in many
// places.
func errorsAs(err error, target any) bool {
	switch tgt := target.(type) {
	case **change.StructuralError:
		for err != nil {
			if e, ok := err.(*change.StructuralError); ok {
				*tgt = e
				return true
			}
			err = unwrap(err)
		}
	case **change.ComplianceError:
		for err != nil {
			if e, ok := err.(*change.ComplianceError); ok {
				*tgt = e
				return true
			}
			err = unwrap(err)
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}
