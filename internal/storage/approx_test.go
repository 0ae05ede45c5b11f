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
// data makes.
func TestOverlayApproxBytesCountsEveryEntry(t *testing.T) {
	base := sim.OnlineOrder()
	node := func(n *model.Node) int {
		return int(unsafe.Sizeof(*n)) + len(n.ID) + len(n.Name) + len(n.Role) + len(n.Template) + len(n.DecisionElement)
	}
	edge := func(from, to string) int { return 24 + len(from) + len(to) }
	// detached is what taking an activity out of the base costs: its edges,
	// its data edges and the node removed, its neighbours reconnected.
	detached := func(id string) int {
		total := 16 + len(id)
		out, in := adjacency(base)
		for _, e := range slices.Concat(in[id], out[id]) {
			total += edge(e.From, e.To)
		}
		for _, de := range base.DataEdgesOf(id) {
			total += 24 + len(de.Activity) + len(de.Element) + len(de.Parameter)
		}
		return total + edge(model.InControlEdges(base, id)[0].From, model.OutControlEdges(base, id)[0].To)
	}
	brochure := sim.OnlineOrderBiasI2()[0].(*change.SerialInsert)
	confirm, _ := base.Node("confirm_order")
	readsOrder := 24 + len("confirm_order") + len("order") + len("in")

	for _, c := range []struct {
		name string
		op   change.Operation
		want int
	}{
		{"insert", brochure,
			edge(brochure.Pred, brochure.Succ) + node(brochure.Node) +
				edge(brochure.Pred, brochure.Node.ID) + edge(brochure.Node.ID, brochure.Succ)},
		{"sync-edge", sim.OnlineOrderBiasI2()[1], edge("confirm_order", "compose_order")},
		{"delete-with-data-edges", &change.DeleteActivity{ID: "confirm_order"}, detached("confirm_order")},
		{"move", &change.MoveActivity{ID: "confirm_order", NewPred: "start", NewSucc: "get_order"},
			detached("confirm_order") + edge("start", "get_order") + node(confirm) +
				edge("start", "confirm_order") + edge("confirm_order", "get_order") + readsOrder},
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
