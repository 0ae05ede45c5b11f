package change_test

import (
	"testing"

	"adept2/internal/change"
	"adept2/internal/model"
	"adept2/internal/sim"
	"adept2/internal/storage"
	"adept2/internal/verify"
)

func TestUpdateStaffAssignmentOnSchema(t *testing.T) {
	s := sim.OnlineOrder()
	op := &change.UpdateStaffAssignment{Activity: "confirm_order", NewRole: "clerk"}
	if err := op.ApplyTo(s); err != nil {
		t.Fatalf("apply: %v", err)
	}
	n, _ := s.Node("confirm_order")
	if n.Role != "clerk" {
		t.Fatalf("role = %q", n.Role)
	}
	if err := verify.Err(s); err != nil {
		t.Fatalf("changed schema must verify: %v", err)
	}
	// Prechecks.
	if err := (&change.UpdateStaffAssignment{Activity: "zz"}).Precheck(s); err == nil {
		t.Fatal("unknown node must fail")
	}
	if err := (&change.UpdateStaffAssignment{Activity: "and-split_1"}).Precheck(s); err == nil {
		t.Fatal("gateway must fail")
	}
}

func TestUpdateStaffAssignmentOnOverlay(t *testing.T) {
	base := sim.OnlineOrder()
	o := storage.NewOverlay(base)
	op := &change.UpdateStaffAssignment{Activity: "confirm_order", NewRole: "clerk"}
	if err := op.ApplyTo(o); err != nil {
		t.Fatalf("apply: %v", err)
	}
	n, _ := o.Node("confirm_order")
	if n.Role != "clerk" {
		t.Fatalf("overlay role = %q", n.Role)
	}
	orig, _ := base.Node("confirm_order")
	if orig.Role != "sales" {
		t.Fatal("base must be untouched")
	}
	// Replacing again updates in place.
	op2 := &change.UpdateStaffAssignment{Activity: "confirm_order", NewRole: "warehouse"}
	if err := op2.ApplyTo(o); err != nil {
		t.Fatal(err)
	}
	n, _ = o.Node("confirm_order")
	if n.Role != "warehouse" {
		t.Fatalf("second replace: %q", n.Role)
	}
	// Node enumeration contains the node exactly once.
	count := 0
	for _, id := range o.NodeIDs() {
		if id == "confirm_order" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("confirm_order enumerated %d times", count)
	}
}

func TestReplaceNodeValidation(t *testing.T) {
	s := sim.OnlineOrder()
	if err := s.ReplaceNode(nil); err == nil {
		t.Fatal("nil node")
	}
	if err := s.ReplaceNode(&model.Node{ID: "zz", Type: model.NodeActivity}); err == nil {
		t.Fatal("unknown node")
	}
	if err := s.ReplaceNode(&model.Node{ID: "confirm_order", Type: model.NodeXORSplit}); err == nil {
		t.Fatal("type change must be rejected")
	}
	o := storage.NewOverlay(sim.OnlineOrder())
	if err := o.ReplaceNode(nil); err == nil {
		t.Fatal("overlay nil node")
	}
	if err := o.ReplaceNode(&model.Node{ID: "zz", Type: model.NodeActivity}); err == nil {
		t.Fatal("overlay unknown node")
	}
	if err := o.ReplaceNode(&model.Node{ID: "confirm_order", Type: model.NodeXORSplit}); err == nil {
		t.Fatal("overlay type change must be rejected")
	}
}

func TestAdHocStaffReassignmentMovesWorkItems(t *testing.T) {
	e := newEngine(t)
	inst := freshInstance(t, e)
	// get_order is offered to clerks (ann, cyn).
	if len(e.WorkItems("ann")) != 1 {
		t.Fatal("setup: ann should see get_order")
	}
	if err := change.ApplyAdHoc(inst, &change.UpdateStaffAssignment{Activity: "get_order", NewRole: "courier"}); err != nil {
		t.Fatalf("reassign: %v", err)
	}
	// The item moved to couriers (bob, dan).
	if len(e.WorkItems("ann")) != 0 {
		t.Fatal("ann should no longer see the item")
	}
	items := e.WorkItems("bob")
	if len(items) != 1 || items[0].Role != "courier" {
		t.Fatalf("bob's worklist = %v", items)
	}
	// And the new role is enforced on start.
	if err := e.StartActivityAt(inst.ID(), "get_order", "ann", 0); err == nil {
		t.Fatal("old role must be rejected")
	}
	if err := e.CompleteActivity(inst.ID(), "get_order", "bob", map[string]any{"out": "o"}); err != nil {
		t.Fatalf("new role: %v", err)
	}
	// The reassignment is always migration-compliant.
	if err := (&change.UpdateStaffAssignment{Activity: "get_order", NewRole: "x"}).FastCompliance(nil); err != nil {
		t.Fatal("staff reassignment must be state-compliant")
	}
}

func TestStaffAssignmentOpJSON(t *testing.T) {
	ops := []change.Operation{&change.UpdateStaffAssignment{Activity: "a", NewRole: "r"}}
	blob, err := change.MarshalOps(ops)
	if err != nil {
		t.Fatal(err)
	}
	back, err := change.UnmarshalOps(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back[0].String() != ops[0].String() {
		t.Fatalf("round trip: %s", back[0])
	}
}
