package storage_test

import (
	"fmt"
	"math/rand"
	"testing"

	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/model"
	"adept2/internal/sim"
	"adept2/internal/storage"
)

// topologyMatches asserts that the topology index of a view is coherent
// with the view's own enumeration methods: same nodes, same per-type edge
// partition, same derived lists.
func topologyMatches(t *testing.T, ctx string, v model.SchemaView) {
	t.Helper()
	topo := v.Topology()
	ids := v.NodeIDs()
	if topo.NumNodes() != len(ids) {
		t.Fatalf("%s: topology has %d nodes, view %d", ctx, topo.NumNodes(), len(ids))
	}
	var wantAuto, wantManual []string
	for i, id := range ids {
		n, ok := v.Node(id)
		if !ok {
			t.Fatalf("%s: view enumerates unknown node %q", ctx, id)
		}
		ni, ok := topo.Idx(id)
		if !ok {
			t.Fatalf("%s: node %q missing from topology", ctx, id)
		}
		nt := topo.At(ni)
		if int(ni) != i || nt.Node() != n {
			t.Fatalf("%s: node %q: index/node mismatch", ctx, id)
		}
		checkPartition := func(kind string, idxs []model.EdgeIdx, edges []*model.Edge, et model.EdgeType) {
			var got, want []*model.Edge
			for _, ei := range idxs {
				got = append(got, topo.EdgeAt(ei))
			}
			for _, e := range edges {
				if e.Type == et {
					want = append(want, e)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: node %q: %s has %d edges, want %d", ctx, id, kind, len(got), len(want))
			}
			seen := make(map[model.EdgeKey]bool, len(want))
			for _, e := range want {
				seen[e.Key()] = true
			}
			for _, e := range got {
				if !seen[e.Key()] {
					t.Fatalf("%s: node %q: %s contains unexpected edge %s", ctx, id, kind, e)
				}
			}
		}
		checkPartition("in-control", nt.InControlIdx(), v.InEdges(id), model.EdgeControl)
		checkPartition("in-sync", nt.InSyncIdx(), v.InEdges(id), model.EdgeSync)
		checkPartition("out-control", nt.OutControlIdx(), v.OutEdges(id), model.EdgeControl)
		checkPartition("out-sync", nt.OutSyncIdx(), v.OutEdges(id), model.EdgeSync)
		checkPartition("out-loop", nt.OutLoopIdx(), v.OutEdges(id), model.EdgeLoop)
		if n.CanAutoExecute() {
			wantAuto = append(wantAuto, id)
		}
		if n.Type == model.NodeActivity && !n.Auto {
			wantManual = append(wantManual, id)
		}
	}
	idsOf := func(idxs []model.NodeIdx) (ids []string) {
		for _, ni := range idxs {
			ids = append(ids, topo.ID(ni))
		}
		return ids
	}
	if got := idsOf(topo.AutoExecutableIdx()); fmt.Sprint(got) != fmt.Sprint(wantAuto) {
		t.Fatalf("%s: auto list %v, want %v", ctx, got, wantAuto)
	}
	if got := idsOf(topo.ManualActivitiesIdx()); fmt.Sprint(got) != fmt.Sprint(wantManual) {
		t.Fatalf("%s: manual list %v, want %v", ctx, got, wantManual)
	}

	// Interner invariants: dense contiguous node indices round-trip
	// through Idx/ID in NodeIDs order; every edge interns to a dense
	// EdgeIdx whose record and target agree with the edge itself.
	for i, id := range ids {
		n, ok := topo.Idx(id)
		if !ok || int(n) != i || topo.ID(n) != id {
			t.Fatalf("%s: node %q does not intern round-trip (idx %d, ok %v)", ctx, id, n, ok)
		}
	}
	if topo.NumEdges() != len(v.Edges()) {
		t.Fatalf("%s: topology has %d edges, view %d", ctx, topo.NumEdges(), len(v.Edges()))
	}
	if topo.NumDataEdges() != len(v.DataEdges()) {
		t.Fatalf("%s: topology counts %d data edges, view %d", ctx, topo.NumDataEdges(), len(v.DataEdges()))
	}
	for i, e := range v.Edges() {
		ei, ok := topo.EdgeIdxOf(e.Key())
		if !ok || int(ei) != i || topo.EdgeAt(ei) != e {
			t.Fatalf("%s: edge %s does not intern round-trip", ctx, e)
		}
		to, _ := topo.Idx(e.To)
		if topo.EdgeTarget(ei) != to {
			t.Fatalf("%s: edge %s target interned wrong", ctx, e)
		}
	}
}

// TestOverlayTopologyCoherence applies random accepted ad-hoc changes to
// instances and asserts after every change that the
// overlay's cached topology index (dropped by every mutation of the delta)
// matches both the overlay's enumeration and the topology of a freshly
// materialized copy of the view.
func TestOverlayTopologyCoherence(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		schemaRng := rand.New(rand.NewSource(int64(trial) + 900))
		name := fmt.Sprintf("topo%d", trial)
		schema := sim.RandomSchema(schemaRng, name, sim.DefaultSchemaOpts())

		e := engine.New(sim.Org())
		if err := e.Deploy(schema); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		inst, err := e.CreateInstance(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		runRng := rand.New(rand.NewSource(int64(trial)*13 + 5))
		driver := sim.NewDriver(runRng, e)
		if err := driver.Advance(inst, 3); err != nil {
			t.Fatalf("trial %d: advance: %v", trial, err)
		}

		opRng := rand.New(rand.NewSource(int64(trial)*7 + 1))
		applied := 0
		for attempt := 0; attempt < 12 && applied < 3; attempt++ {
			ops := sim.RandomAdHocOps(opRng, inst.View(), attempt)
			if change.ApplyAdHoc(inst, ops...) != nil {
				continue
			}
			applied++
			view := inst.View()
			ctx := fmt.Sprintf("trial %d change %d", trial, applied)
			topologyMatches(t, ctx, view)

			// The overlay topology must equal the topology of a full
			// materialization of the same view.
			mat, err := storage.Materialize(view, "mat", "t", 1)
			if err != nil {
				t.Fatalf("%s: materialize: %v", ctx, err)
			}
			topologyMatches(t, ctx+" (materialized)", mat)
			if !model.Equal(view, mat) {
				t.Fatalf("%s: materialized view differs", ctx)
			}
		}
	}
}

// TestTopologyFollowsDataEdges: a data-edge change touches no node or
// control edge, but the topology counts the view's data edges, so a
// schema and an overlay drop their cached index on one too.
func TestTopologyFollowsDataEdges(t *testing.T) {
	s := sim.OnlineOrder()
	o := storage.NewOverlay(s)
	pack := &model.DataEdge{Activity: "pack_goods", Element: "order", Access: model.Read, Parameter: "in"}
	for _, v := range []model.MutableView{o, s} {
		topologyMatches(t, fmt.Sprintf("%T before", v), v)
		if err := v.AddDataEdge(pack); err != nil {
			t.Fatal(err)
		}
		topologyMatches(t, fmt.Sprintf("%T after an added data edge", v), v)
		if err := v.RemoveDataEdge(pack.Key()); err != nil {
			t.Fatal(err)
		}
		topologyMatches(t, fmt.Sprintf("%T after a removed data edge", v), v)
	}
}
