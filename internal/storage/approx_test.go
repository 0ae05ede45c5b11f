package storage_test

import (
	"slices"
	"testing"
	"unsafe"

	"adept2/internal/change"
	"adept2/internal/model"
	"adept2/internal/sim"
	"adept2/internal/storage"
)

// TestOverlayApproxBytesCountsEveryEntry applies one bias of each shape to
// a fresh overlay over the online-order schema and compares ApproxBytes
// before (nothing) and after with the per-entry formula summed over what
// the operation adds and removes — removed data elements' and data edges'
// entries included, which a delete or a move of an activity that reads
// data makes. An entry is its record at its size, and an added node or
// data edge its own strings besides: endpoints and removed names are the
// view's nodes' and elements'.
func TestOverlayApproxBytesCountsEveryEntry(t *testing.T) {
	base := sim.OnlineOrder()
	node := func(n *model.Node) int {
		return int(unsafe.Sizeof(*n)) + len(n.ID) + len(n.Name) + len(n.Role) + len(n.Template) + len(n.DecisionElement)
	}
	added, removed := int(unsafe.Sizeof(model.Edge{})), int(unsafe.Sizeof(model.EdgeKey{}))
	// detached is what taking an activity out of the base costs: its edges,
	// its data edges and the node removed, its neighbours reconnected.
	detached := func(id string) int {
		total := int(unsafe.Sizeof(id))
		out, in := adjacency(base)
		total += removed * len(slices.Concat(in[id], out[id]))
		total += int(unsafe.Sizeof(model.DataEdgeKey{})) * len(base.DataEdgesOf(id))
		return total + added
	}
	brochure := sim.OnlineOrderBiasI2()[0].(*change.SerialInsert)
	confirm, _ := base.Node("confirm_order")
	readsOrder := int(unsafe.Sizeof(model.DataEdge{})) + len("in")

	for _, c := range []struct {
		name string
		op   change.Operation
		want int
	}{
		{"insert", brochure, removed + node(brochure.Node) + 2*added},
		{"sync-edge", sim.OnlineOrderBiasI2()[1], added},
		{"delete-with-data-edges", &change.DeleteActivity{ID: "confirm_order"}, detached("confirm_order")},
		{"move", &change.MoveActivity{ID: "confirm_order", NewPred: "start", NewSucc: "get_order"},
			detached("confirm_order") + removed + node(confirm) + 2*added + readsOrder},
	} {
		o := storage.NewOverlay(base)
		if before := o.ApproxBytes(); before != 0 {
			t.Fatalf("%s: an empty overlay reports %d B", c.name, before)
		}
		if err := c.op.ApplyTo(o); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if after := o.ApproxBytes(); after != c.want {
			t.Errorf("%s: ApproxBytes = %d after the operation, its entries sum to %d", c.name, after, c.want)
		}
	}
}
