package rollback_test

import (
	"strings"
	"testing"

	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/model"
	"adept2/internal/rollback"
	"adept2/internal/sim"
	"adept2/internal/state"
	"adept2/internal/storage"
)

func newInstance(t *testing.T) (*engine.Engine, *engine.Instance) {
	t.Helper()
	e := engine.New(sim.Org())
	if err := e.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	return e, inst
}

func TestUndoLastRemovesBias(t *testing.T) {
	_, inst := newInstance(t)
	if err := change.ApplyAdHoc(inst, sim.OnlineOrderBiasI2()...); err != nil {
		t.Fatal(err)
	}
	if len(inst.BiasOps()) != 2 {
		t.Fatal("setup")
	}
	// Undo the sync edge (the last op).
	if err := rollback.UndoLast(inst); err != nil {
		t.Fatalf("undo: %v", err)
	}
	if len(inst.BiasOps()) != 1 {
		t.Fatalf("bias ops = %d", len(inst.BiasOps()))
	}
	v := inst.View()
	if v.HasEdge(model.EdgeKey{From: "confirm_order", To: "compose_order", Type: model.EdgeSync}) {
		t.Fatal("sync edge should be gone")
	}
	if _, ok := v.Node("send_brochure"); !ok {
		t.Fatal("first op must survive")
	}
	// Undo the remaining insert.
	if err := rollback.UndoLast(inst); err != nil {
		t.Fatalf("second undo: %v", err)
	}
	if inst.Biased() {
		t.Fatal("instance should be unbiased again")
	}
	if _, ok := inst.View().Node("send_brochure"); ok {
		t.Fatal("inserted activity should be gone")
	}
	// Third undo fails: nothing left.
	if err := rollback.UndoLast(inst); err == nil {
		t.Fatal("undo without bias must fail")
	}
}

func TestUndoAdaptsState(t *testing.T) {
	e, inst := newInstance(t)
	if err := e.CompleteActivity(inst.ID(), "get_order", "ann", map[string]any{"out": "o"}); err != nil {
		t.Fatal(err)
	}
	op := &change.SerialInsert{
		Node: &model.Node{ID: "extra", Type: model.NodeActivity, Role: "clerk", Template: "extra"},
		Pred: "collect_data",
		Succ: "confirm_order",
	}
	if err := change.ApplyAdHoc(inst, op); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "collect_data", "ann", nil); err != nil {
		t.Fatal(err)
	}
	// extra is activated now; undoing re-activates confirm_order instead.
	if inst.NodeState("extra") != state.Activated {
		t.Fatal("setup: extra should be activated")
	}
	if err := rollback.UndoLast(inst); err != nil {
		t.Fatalf("undo: %v", err)
	}
	if inst.NodeState("confirm_order") != state.Activated {
		t.Fatalf("confirm_order should be activated after undo, is %s", inst.NodeState("confirm_order"))
	}
	// The worklist follows the adaptation.
	if _, ok := e.Worklist().ItemFor(inst.ID(), "extra"); ok {
		t.Fatal("work item of removed activity must be withdrawn")
	}
	if _, ok := e.Worklist().ItemFor(inst.ID(), "confirm_order"); !ok {
		t.Fatal("work item of re-activated activity must exist")
	}
}

func TestUndoRejectedWhenWorkStarted(t *testing.T) {
	e, inst := newInstance(t)
	if err := e.CompleteActivity(inst.ID(), "get_order", "ann", map[string]any{"out": "o"}); err != nil {
		t.Fatal(err)
	}
	op := &change.SerialInsert{
		Node: &model.Node{ID: "extra", Type: model.NodeActivity, Role: "clerk", Template: "extra"},
		Pred: "collect_data",
		Succ: "confirm_order",
	}
	if err := change.ApplyAdHoc(inst, op); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "collect_data", "ann", nil); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "extra", "ann", nil); err != nil {
		t.Fatal(err)
	}
	err := rollback.UndoLast(inst)
	if err == nil || !strings.Contains(err.Error(), "progressed") {
		t.Fatalf("undo of executed insert must fail with a state conflict, got %v", err)
	}
	// The bias is untouched after the failed undo.
	if len(inst.BiasOps()) != 1 {
		t.Fatal("failed undo must not modify the bias")
	}
}

func TestUndoAll(t *testing.T) {
	_, inst := newInstance(t)
	if err := change.ApplyAdHoc(inst, sim.OnlineOrderBiasI2()...); err != nil {
		t.Fatal(err)
	}
	if err := change.ApplyAdHoc(inst, &change.InsertSyncEdge{From: "collect_data", To: "compose_order"}); err != nil {
		t.Fatal(err)
	}
	if len(inst.BiasOps()) != 3 {
		t.Fatal("setup")
	}
	if err := rollback.UndoAll(inst); err != nil {
		t.Fatalf("undo all: %v", err)
	}
	if inst.Biased() {
		t.Fatal("instance should be unbiased")
	}
	base := sim.OnlineOrder()
	if !model.Equal(base, inst.View()) {
		t.Fatal("view should equal the plain schema again")
	}
}

func TestUndoOnFinishedInstanceFails(t *testing.T) {
	e, inst := newInstance(t)
	if err := change.ApplyAdHoc(inst, &change.InsertSyncEdge{From: "collect_data", To: "compose_order"}); err != nil {
		t.Fatal(err)
	}
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
	if err := rollback.UndoLast(inst); err == nil {
		t.Fatal("undo on finished instance must fail")
	}
}

// TestUndoAcrossStorageStrategies undoes the last of three ops and builds
// the three representations of Fig. 2 from the remaining delta — the
// overlay the instance holds, a full copy of that view, and the remaining
// ops re-applied to the base — each equal to those ops applied to a plain
// copy of the schema; undoing the rest returns the plain schema.
func TestUndoAcrossStorageStrategies(t *testing.T) {
	_, inst := newInstance(t)
	if err := change.ApplyAdHoc(inst, sim.OnlineOrderBiasI2()...); err != nil {
		t.Fatal(err)
	}
	if err := change.ApplyAdHoc(inst, &change.InsertSyncEdge{From: "collect_data", To: "compose_order"}); err != nil {
		t.Fatal(err)
	}
	if err := rollback.UndoLast(inst); err != nil {
		t.Fatal(err)
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
			if !model.Equal(ref, v) {
				t.Fatalf("%s view differs from the remaining ops applied to the schema", c.name)
			}
		})
	}
	if err := rollback.UndoAll(inst); err != nil {
		t.Fatal(err)
	}
	if !model.Equal(sim.OnlineOrder(), inst.View()) {
		t.Fatal("undo did not restore the plain schema")
	}
}
