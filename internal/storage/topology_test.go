package storage_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/model"
	"adept2/internal/rollback"
	"adept2/internal/sim"
	"adept2/internal/storage"
)

// topologyMatches asserts that the topology index of a view agrees with
// the view's own string API (viewAgrees), that the index
// model.BuildTopology makes from scratch of the view's materialised copy
// agrees with that copy's API and hides nothing, and that the two indices
// agree by ID: every visible node has the reference's record, typed
// adjacency lists and edge targets, and the derived lists, the boundaries
// and the edges agree. It returns the numbers of hidden node and edge
// indices the view's index holds.
func topologyMatches(t *testing.T, ctx string, v model.SchemaView) (hiddenNodes, hiddenEdges int) {
	t.Helper()
	topo := v.Topology()
	hiddenNodes, hiddenEdges = viewAgrees(t, ctx, v, topo)
	mat, err := storage.Materialize(v, "mat", "t", 1)
	if err != nil {
		t.Fatalf("%s: materialize: %v", ctx, err)
	}
	ref := model.BuildTopology(mat)
	if hn, he := viewAgrees(t, ctx+" (materialised)", mat, ref); hn+he != 0 {
		t.Fatalf("%s: the index built from scratch hides %d nodes and %d edges", ctx, hn, he)
	}

	// keys renders a list of edge indices by key, code and interned target,
	// marking a target that is not the index its ID interns to.
	keys := func(tp *model.Topology, idxs []model.EdgeIdx) []string {
		var out []string
		for _, ei := range idxs {
			to := "none"
			if ti := tp.EdgeTarget(ei); ti != model.InvalidNode {
				to = tp.ID(ti)
				if j, ok := tp.Idx(to); !ok || j != ti {
					to += fmt.Sprintf(" at stale index %d", ti)
				}
			}
			out = append(out, fmt.Sprintf("%s/%d->%s", tp.EdgeAt(ei).Key(), tp.EdgeAt(ei).Code, to))
		}
		return out
	}
	for _, id := range v.NodeIDs() {
		ni, _ := topo.Idx(id)
		ri, ok := ref.Idx(id)
		if !ok || !reflect.DeepEqual(*topo.At(ni).Node(), *ref.At(ri).Node()) {
			t.Fatalf("%s: node %q: record differs from the materialised one", ctx, id)
		}
		nt, rt := topo.At(ni), ref.At(ri)
		for _, l := range [...]struct {
			kind      string
			got, want []model.EdgeIdx
		}{
			{"out-control", nt.OutControlIdx(), rt.OutControlIdx()},
			{"out-sync", nt.OutSyncIdx(), rt.OutSyncIdx()},
			{"out-loop", nt.OutLoopIdx(), rt.OutLoopIdx()},
			{"in-control", nt.InControlIdx(), rt.InControlIdx()},
			{"in-sync", nt.InSyncIdx(), rt.InSyncIdx()},
			{"in-loop", nt.InLoopIdx(), rt.InLoopIdx()},
		} {
			if got, want := keys(topo, l.got), keys(ref, l.want); !slices.Equal(got, want) {
				t.Fatalf("%s: node %q: %s %v, built from scratch %v", ctx, id, l.kind, got, want)
			}
		}
	}
	idsOf := func(tp *model.Topology, idxs ...model.NodeIdx) (out []string) {
		for _, ni := range idxs {
			if ni != model.InvalidNode {
				out = append(out, tp.ID(ni))
			}
		}
		return out
	}
	for _, l := range [...]struct {
		kind      string
		got, want []string
	}{
		{"auto", idsOf(topo, topo.AutoExecutableIdx()...), idsOf(ref, ref.AutoExecutableIdx()...)},
		{"manual", idsOf(topo, topo.ManualActivitiesIdx()...), idsOf(ref, ref.ManualActivitiesIdx()...)},
		{"boundaries", idsOf(topo, topo.StartIdx(), topo.EndIdx()), idsOf(ref, ref.StartIdx(), ref.EndIdx())},
	} {
		if !slices.Equal(l.got, l.want) {
			t.Fatalf("%s: %s %v, built from scratch %v", ctx, l.kind, l.got, l.want)
		}
	}
	if topo.NumDataEdges() != ref.NumDataEdges() {
		t.Fatalf("%s: topology counts %d data edges, built from scratch %d", ctx, topo.NumDataEdges(), ref.NumDataEdges())
	}
	for _, e := range v.Edges() {
		ei, _ := topo.EdgeIdxOf(e.Key())
		ri, _ := ref.EdgeIdxOf(e.Key())
		if got, want := keys(topo, []model.EdgeIdx{ei}), keys(ref, []model.EdgeIdx{ri}); !slices.Equal(got, want) {
			t.Fatalf("%s: edge %v, built from scratch %v", ctx, got, want)
		}
	}
	return hiddenNodes, hiddenEdges
}

// viewAgrees asserts that a topology index is coherent with the string API
// of the view it indexes: the i-th visible node index is NodeIDs()[i] and
// interns back to itself, the i-th visible edge index is Edges()[i] and
// EdgeIdxOf finds it with its target interned, no ID interns to a hidden
// index, each node's six typed lists are the view's Edges() that leave or
// enter the node with the list's type, in Edges() order — a reference that
// reads neither the patch nor BuildTopology — and the derived lists are the view's nodes that satisfy
// CanAutoExecute and the manual-activity test, in view order. It returns
// the numbers of hidden node and edge indices.
func viewAgrees(t *testing.T, ctx string, v model.SchemaView, topo *model.Topology) (hiddenNodes, hiddenEdges int) {
	t.Helper()
	var visible []model.NodeIdx
	for i := range model.NodeIdx(topo.NumNodes()) {
		if !topo.Hidden(i) {
			visible = append(visible, i)
			continue
		}
		hiddenNodes++
		if j, ok := topo.Idx(topo.ID(i)); ok && (j == i || topo.Hidden(j)) {
			t.Fatalf("%s: %q interns to hidden index %d", ctx, topo.ID(i), j)
		}
	}
	ids := v.NodeIDs()
	if len(visible) != len(ids) {
		t.Fatalf("%s: topology shows %d nodes, the view %d", ctx, len(visible), len(ids))
	}
	var wantAuto, wantManual []string
	out, in := adjacency(v)
	for i, id := range ids {
		n, ok := v.Node(id)
		if !ok {
			t.Fatalf("%s: view enumerates unknown node %q", ctx, id)
		}
		ni, ok := topo.Idx(id)
		if !ok || ni != visible[i] || topo.ID(ni) != id || topo.At(ni).Node() != n {
			t.Fatalf("%s: node %q is not the %d-th visible index (idx %d, ok %v)", ctx, id, i, ni, ok)
		}
		nt := topo.At(ni)
		split := func(kind string, idxs []model.EdgeIdx, edges []*model.Edge, et model.EdgeType) {
			var got, want []*model.Edge
			for _, ei := range idxs {
				got = append(got, topo.EdgeAt(ei))
			}
			for _, e := range edges {
				if e.Type == et {
					want = append(want, e)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: node %q: %s lists %v, the view's edges %v", ctx, id, kind, got, want)
			}
		}
		split("in-control", nt.InControlIdx(), in[id], model.EdgeControl)
		split("in-sync", nt.InSyncIdx(), in[id], model.EdgeSync)
		split("in-loop", nt.InLoopIdx(), in[id], model.EdgeLoop)
		split("out-control", nt.OutControlIdx(), out[id], model.EdgeControl)
		split("out-sync", nt.OutSyncIdx(), out[id], model.EdgeSync)
		split("out-loop", nt.OutLoopIdx(), out[id], model.EdgeLoop)
		if n.CanAutoExecute() {
			wantAuto = append(wantAuto, id)
		}
		if n.Type == model.NodeActivity && !n.Auto {
			wantManual = append(wantManual, id)
		}
	}
	idsOf := func(idxs []model.NodeIdx) (out []string) {
		for _, ni := range idxs {
			out = append(out, topo.ID(ni))
		}
		return out
	}
	if got := idsOf(topo.AutoExecutableIdx()); !slices.Equal(got, wantAuto) {
		t.Fatalf("%s: auto list %v, want %v", ctx, got, wantAuto)
	}
	if got := idsOf(topo.ManualActivitiesIdx()); !slices.Equal(got, wantManual) {
		t.Fatalf("%s: manual list %v, want %v", ctx, got, wantManual)
	}

	var visibleEdges []model.EdgeIdx
	for i := range model.EdgeIdx(topo.NumEdges()) {
		if topo.EdgeHidden(i) {
			hiddenEdges++
		} else {
			visibleEdges = append(visibleEdges, i)
		}
	}
	edges := v.Edges()
	if len(visibleEdges) != len(edges) {
		t.Fatalf("%s: topology shows %d edges, the view %d", ctx, len(visibleEdges), len(edges))
	}
	if topo.NumDataEdges() != len(v.DataEdges()) {
		t.Fatalf("%s: topology counts %d data edges, the view %d", ctx, topo.NumDataEdges(), len(v.DataEdges()))
	}
	for i, e := range edges {
		ei, ok := topo.EdgeIdxOf(e.Key())
		if !ok || ei != visibleEdges[i] || topo.EdgeAt(ei) != e {
			t.Fatalf("%s: edge %s is not the %d-th visible edge index", ctx, e, i)
		}
		to, ok := topo.Idx(e.To)
		if !ok {
			to = model.InvalidNode
		}
		if topo.EdgeTarget(ei) != to {
			t.Fatalf("%s: edge %s target interned wrong", ctx, e)
		}
	}
	return hiddenNodes, hiddenEdges
}

// TestOverlayTopologyCoherence applies random accepted ad-hoc changes to
// instances, then undoes them one at a time back to the deployed version,
// and asserts after every step that the overlay's cached topology index
// (dropped by every mutation of the delta) agrees with the index built
// from scratch of a materialised copy of the view.
func TestOverlayTopologyCoherence(t *testing.T) {
	undos := 0
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
			topologyMatches(t, fmt.Sprintf("trial %d change %d", trial, applied), inst.View())
		}
		for undone := 1; inst.Biased(); undone++ {
			if err := rollback.UndoLast(inst); err != nil {
				break // the instance has progressed into the change
			}
			topologyMatches(t, fmt.Sprintf("trial %d undo %d", trial, undone), inst.View())
			undos++
		}
	}
	if undos == 0 {
		t.Fatal("no change was undone")
	}
	t.Logf("%d changes undone", undos)
}

// TestPatchAgreesWithBuild holds the patched index of an overlay to the
// index built from scratch of its materialised copy (topologyMatches) over
// random types crossed with random sequences of all eleven change
// operations. The operations are applied to the overlay unchecked, so a
// failing one may leave half its edits behind, and are then undone one at
// a time back to the empty bias: each shorter prefix is re-applied to a
// fresh overlay, as an undo rebuilds a bias. Every kind of operation must
// have applied at least once.
func TestPatchAgreesWithBuild(t *testing.T) {
	applied := make(map[string]int)
	cases, checks, hiddenNodes, hiddenEdges := 0, 0, 0, 0
	check := func(ctx string, v model.SchemaView) {
		hn, he := topologyMatches(t, ctx, v)
		checks, hiddenNodes, hiddenEdges = checks+1, hiddenNodes+hn, hiddenEdges+he
	}
	for schema := 0; schema < 10; schema++ {
		base := sim.RandomSchema(rand.New(rand.NewSource(int64(schema)+7700)), fmt.Sprintf("patch%d", schema), sim.DefaultSchemaOpts())
		for seq := 0; seq < 4; seq++ {
			cases++
			rng := rand.New(rand.NewSource(int64(schema)*31 + int64(seq)))
			o := storage.NewOverlay(base)
			var ops []change.Operation
			for step := 0; step < 16; step++ {
				op := randomOp(rng, o, step)
				err := op.ApplyTo(o)
				if err == nil {
					applied[op.OpName()]++
				}
				ops = append(ops, op)
				check(fmt.Sprintf("schema %d sequence %d step %d %s (%v)", schema, seq, step, op, err), o)
			}
			for k := len(ops) - 1; k >= 0; k-- {
				u := storage.NewOverlay(base)
				for _, op := range ops[:k] {
					_ = op.ApplyTo(u)
				}
				check(fmt.Sprintf("schema %d sequence %d undone to %d ops", schema, seq, k), u)
			}
		}
	}
	for _, kind := range []string{"serial-insert", "parallel-insert", "conditional-insert", "delete-activity",
		"move-activity", "insert-sync-edge", "delete-sync-edge", "update-staff-assignment",
		"add-data-element", "add-data-edge", "delete-data-edge"} {
		if applied[kind] == 0 {
			t.Errorf("no %s applied in any sequence", kind)
		}
	}
	t.Logf("%d (schema, op-sequence) cases, %d index checks, %d hidden node and %d hidden edge indices: zero differences; applied %v",
		cases, checks, hiddenNodes, hiddenEdges, applied)
}

// randomOp draws one of the eleven change operations with arguments from
// the view: an insert on a control edge or around an activity, a delete, a
// move, a sync edge in or out, a staff change, a data element, a data edge
// in or out.
func randomOp(rng *rand.Rand, v model.SchemaView, seq int) change.Operation {
	var acts []string
	for _, id := range v.NodeIDs() {
		if n, _ := v.Node(id); n.Type == model.NodeActivity {
			acts = append(acts, id)
		}
	}
	var ctrl, syncs []*model.Edge
	for _, e := range v.Edges() {
		switch e.Type {
		case model.EdgeControl:
			ctrl = append(ctrl, e)
		case model.EdgeSync:
			syncs = append(syncs, e)
		}
	}
	id := fmt.Sprintf("n%d_%d", seq, rng.Intn(1000))
	elem := &model.DataElement{ID: "e_" + id, Name: id, Type: model.TypeString}
	if len(acts) == 0 || len(ctrl) == 0 {
		return &change.AddDataElement{Element: elem}
	}
	pick := func() string { return acts[rng.Intn(len(acts))] }
	node := &model.Node{ID: id, Name: id, Type: model.NodeActivity, Role: "worker", Template: "tpl_" + id}
	e := ctrl[rng.Intn(len(ctrl))]
	if des := v.DataElements(); len(des) > 0 {
		elem = des[rng.Intn(len(des))]
	}
	switch rng.Intn(11) {
	case 0:
		return &change.SerialInsert{Node: node, Pred: e.From, Succ: e.To}
	case 1:
		a := pick()
		return &change.ParallelInsert{Node: node, From: a, To: a}
	case 2:
		return &change.ConditionalInsert{Node: node, Pred: e.From, Succ: e.To, DecisionElement: elem.ID}
	case 3:
		return &change.DeleteActivity{ID: pick()}
	case 4:
		return &change.MoveActivity{ID: pick(), NewPred: e.From, NewSucc: e.To}
	case 5:
		return &change.InsertSyncEdge{From: pick(), To: pick()}
	case 6:
		if len(syncs) > 0 {
			s := syncs[rng.Intn(len(syncs))]
			return &change.DeleteSyncEdge{From: s.From, To: s.To}
		}
		return &change.DeleteSyncEdge{From: pick(), To: pick()}
	case 7:
		return &change.UpdateStaffAssignment{Activity: pick(), NewRole: "clerk"}
	case 8:
		return &change.AddDataElement{Element: &model.DataElement{ID: "e_" + id, Name: id, Type: model.TypeString}}
	case 9:
		return &change.AddDataEdge{Edge: &model.DataEdge{Activity: pick(), Element: elem.ID, Access: model.DataAccess(rng.Intn(2)), Parameter: "p_" + id}}
	default:
		if des := v.DataEdges(); len(des) > 0 {
			return &change.DeleteDataEdge{Key: des[rng.Intn(len(des))].Key()}
		}
		return &change.DeleteDataEdge{Key: model.DataEdgeKey{Activity: pick(), Element: elem.ID, Parameter: "p"}}
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

// BenchmarkPatchedIndex measures a patched index against the index built
// from scratch of the same view, over the 40 biases of 16 random
// operations TestPatchAgreesWithBuild makes: "patch" and "build" make the
// index, and the accessor rows read every visible node's handle and lists
// (At), intern every node ID (Idx) and read every visible edge's target
// (EdgeTarget). Each iteration covers all 40 views.
func BenchmarkPatchedIndex(b *testing.B) {
	type view struct {
		o     *storage.Overlay
		ids   []string
		base  *model.Topology
		d     model.Delta
		built *model.Topology
	}
	var views []view
	for schema := 0; schema < 10; schema++ {
		base := sim.RandomSchema(rand.New(rand.NewSource(int64(schema)+7700)), fmt.Sprintf("patch%d", schema), sim.DefaultSchemaOpts())
		for seq := 0; seq < 4; seq++ {
			rng := rand.New(rand.NewSource(int64(schema)*31 + int64(seq)))
			o := storage.NewOverlay(base)
			for step := 0; step < 16; step++ {
				_ = randomOp(rng, o, step).ApplyTo(o)
			}
			views = append(views, view{o, o.NodeIDs(), base.Topology(), deltaOf(base, o), model.BuildTopology(o)})
		}
	}
	b.Run("patch", func(b *testing.B) {
		for range b.N {
			for _, v := range views {
				benchSink += v.base.Patch(v.d).NumNodes()
			}
		}
	})
	b.Run("build", func(b *testing.B) {
		for range b.N {
			for _, v := range views {
				benchSink += model.BuildTopology(v.o).NumNodes()
			}
		}
	})
	for _, side := range []string{"patched", "built"} {
		topo := func(v view) *model.Topology {
			if side == "built" {
				return v.built
			}
			return v.o.Topology()
		}
		b.Run("At/"+side, func(b *testing.B) {
			for range b.N {
				for _, v := range views {
					tp := topo(v)
					for i := range model.NodeIdx(tp.NumNodes()) {
						if !tp.Hidden(i) {
							nt := tp.At(i)
							benchSink += len(nt.OutControlIdx()) + len(nt.InControlIdx())
						}
					}
				}
			}
		})
		b.Run("Idx/"+side, func(b *testing.B) {
			for range b.N {
				for _, v := range views {
					tp := topo(v)
					for _, id := range v.ids {
						i, _ := tp.Idx(id)
						benchSink += int(i)
					}
				}
			}
		})
		b.Run("EdgeTarget/"+side, func(b *testing.B) {
			for range b.N {
				for _, v := range views {
					tp := topo(v)
					for i := range model.EdgeIdx(tp.NumEdges()) {
						if !tp.EdgeHidden(i) {
							benchSink += int(tp.EdgeTarget(i))
						}
					}
				}
			}
		})
	}
}

// BenchmarkPatch measures how a biased view's index scales with its bias:
// over biases of 1, 4 and 16 random operations drawn as
// TestPatchAgreesWithBuild draws them, 40 per length, "make" applies each
// bias to a fresh overlay and takes its Topology(), and "read" reads every
// node of each view's index: its ID interned (Idx), its handle (At) and
// the targets of its outgoing edges (EdgeTarget). It calls the Overlay and
// Topology API only. Each iteration covers all 40 biases.
func BenchmarkPatch(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		type bias struct {
			base *model.Schema
			ops  []change.Operation
			o    *storage.Overlay
			ids  []string
		}
		var biases []bias
		for schema := 0; schema < 10; schema++ {
			base := sim.RandomSchema(rand.New(rand.NewSource(int64(schema)+7700)), fmt.Sprintf("patch%d", schema), sim.DefaultSchemaOpts())
			for seq := 0; seq < 4; seq++ {
				rng := rand.New(rand.NewSource(int64(schema)*31 + int64(seq)))
				o := storage.NewOverlay(base)
				var ops []change.Operation
				for step := range n {
					op := randomOp(rng, o, step)
					_ = op.ApplyTo(o)
					ops = append(ops, op)
				}
				biases = append(biases, bias{base, ops, o, o.NodeIDs()})
			}
		}
		b.Run(fmt.Sprintf("ops=%d/make", n), func(b *testing.B) {
			for range b.N {
				for _, bi := range biases {
					o := storage.NewOverlay(bi.base)
					for _, op := range bi.ops {
						_ = op.ApplyTo(o)
					}
					benchSink += o.Topology().NumNodes()
				}
			}
		})
		b.Run(fmt.Sprintf("ops=%d/read", n), func(b *testing.B) {
			for range b.N {
				for _, bi := range biases {
					tp := bi.o.Topology()
					for _, id := range bi.ids {
						i, _ := tp.Idx(id)
						nt := tp.At(i)
						for _, list := range [...][]model.EdgeIdx{nt.OutControlIdx(), nt.OutSyncIdx(), nt.OutLoopIdx()} {
							for _, ei := range list {
								benchSink += int(tp.EdgeTarget(ei))
							}
						}
					}
				}
			}
		})
	}
}

// benchSink keeps what the benchmarks read, so that no read is optimised
// away.
var benchSink int

// deltaOf returns the delta that makes view v of its base schema: the
// nodes and edges v shows that the base does not (by record), in v's
// order, and the base's that v does not show.
func deltaOf(base *model.Schema, v model.SchemaView) model.Delta {
	d := model.Delta{DataEdges: len(v.DataEdges())}
	for _, id := range v.NodeIDs() {
		n, _ := v.Node(id)
		if bn, ok := base.Node(id); !ok || bn != n {
			d.AddedNodes = append(d.AddedNodes, n)
		}
	}
	for _, id := range base.NodeIDs() {
		if _, ok := v.Node(id); !ok {
			d.RemovedNodes = append(d.RemovedNodes, id)
		}
	}
	for _, e := range v.Edges() {
		if !slices.Contains(base.Edges(), e) {
			d.AddedEdges = append(d.AddedEdges, e)
		}
	}
	for _, e := range base.Edges() {
		if !slices.Contains(v.Edges(), e) {
			d.RemovedEdges = append(d.RemovedEdges, e.Key())
		}
	}
	return d
}
