package storage_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"adept2/internal/model"
	"adept2/internal/sim"
	"adept2/internal/storage"
)

// adjacency returns every node's outgoing and incoming edges, each list in
// Edges() order: the view's adjacency read from Edges() alone, so that it
// is a reference independent of the view's index.
func adjacency(v model.SchemaView) (out, in map[string][]*model.Edge) {
	out, in = make(map[string][]*model.Edge), make(map[string][]*model.Edge)
	for _, e := range v.Edges() {
		out[e.From] = append(out[e.From], e)
		in[e.To] = append(in[e.To], e)
	}
	return out, in
}

// describe renders everything a view answers — every SchemaView method,
// asked for every given node, data element and edge key, with the order of
// each list — and everything its topology index holds, one line each.
func describe(v model.SchemaView, nodes, elems []string, keys []model.EdgeKey) []string {
	edges := func(es []*model.Edge) (out []string) {
		for _, e := range es {
			out = append(out, fmt.Sprintf("%s/%d", e, e.Code))
		}
		return out
	}
	dataEdges := func(des []*model.DataEdge) (out []string) {
		for _, de := range des {
			out = append(out, fmt.Sprintf("%+v", *de))
		}
		return out
	}
	lines := []string{
		fmt.Sprintf("type %s version %d start %q end %q", v.TypeName(), v.Version(), v.StartID(), v.EndID()),
		fmt.Sprintf("nodes %q", v.NodeIDs()),
		fmt.Sprintf("edges %q", edges(v.Edges())),
		fmt.Sprintf("data edges %q", dataEdges(v.DataEdges())),
	}
	for _, d := range v.DataElements() {
		lines = append(lines, fmt.Sprintf("data element %+v", *d))
	}
	out, in := adjacency(v)
	for _, id := range nodes {
		if n, ok := v.Node(id); ok {
			lines = append(lines, fmt.Sprintf("node %+v", *n))
		} else {
			lines = append(lines, fmt.Sprintf("node %s absent", id))
		}
		lines = append(lines, fmt.Sprintf("%s out %q in %q data %q", id, edges(out[id]), edges(in[id]), dataEdges(v.DataEdgesOf(id))))
	}
	for _, id := range elems {
		d, ok := v.DataElement(id)
		lines = append(lines, fmt.Sprintf("data element %s present %v same %v", id, ok, ok && slices.Contains(v.DataElements(), d)))
	}
	for _, k := range keys {
		lines = append(lines, fmt.Sprintf("has %s %v", k, v.HasEdge(k)))
	}

	// The topology is rendered by visible position: a patch shares its
	// base's indices and hides some, a built index numbers its view's
	// nodes and edges from 0, and both order them as the view does.
	topo := v.Topology()
	var nodeAt []model.NodeIdx
	nodePos := make(map[model.NodeIdx]int)
	for i := range model.NodeIdx(topo.NumNodes()) {
		if !topo.Hidden(i) {
			nodePos[i] = len(nodeAt)
			nodeAt = append(nodeAt, i)
		}
	}
	var edgeAt []model.EdgeIdx
	edgePos := make(map[model.EdgeIdx]int)
	for i := range model.EdgeIdx(topo.NumEdges()) {
		if !topo.EdgeHidden(i) {
			edgePos[i] = len(edgeAt)
			edgeAt = append(edgeAt, i)
		}
	}
	ids := func(idxs []model.NodeIdx) (out []string) {
		for _, ni := range idxs {
			out = append(out, topo.ID(ni))
		}
		return out
	}
	adjacent := func(idxs []model.EdgeIdx) (out []string) {
		for _, ei := range idxs {
			e := topo.EdgeAt(ei)
			out = append(out, fmt.Sprintf("%d:%s/%d", edgePos[ei], e, e.Code))
		}
		return out
	}
	lines = append(lines, fmt.Sprintf("topology: %d nodes %d edges auto %q manual %q", len(nodeAt), len(edgeAt),
		ids(topo.AutoExecutableIdx()), ids(topo.ManualActivitiesIdx())))
	for _, ni := range []model.NodeIdx{topo.StartIdx(), topo.EndIdx()} {
		if ni != model.InvalidNode {
			lines = append(lines, "topology: boundary "+topo.ID(ni))
		}
	}
	for pos, ni := range nodeAt {
		nt := topo.At(ni)
		lines = append(lines, fmt.Sprintf("topology: %d %+v out %q %q %q in %q %q %q", pos, *nt.Node(),
			adjacent(nt.OutControlIdx()), adjacent(nt.OutSyncIdx()), adjacent(nt.OutLoopIdx()),
			adjacent(nt.InControlIdx()), adjacent(nt.InSyncIdx()), adjacent(nt.InLoopIdx())))
	}
	for pos, ei := range edgeAt {
		back, ok := topo.EdgeIdxOf(topo.EdgeAt(ei).Key())
		target := "none"
		if to := topo.EdgeTarget(ei); to != model.InvalidNode {
			target = fmt.Sprintf("%s at %d", topo.ID(to), nodePos[to])
		}
		lines = append(lines, fmt.Sprintf("topology: edge %d %s to %s interns to %d %v", pos, topo.EdgeAt(ei), target, edgePos[back], ok))
	}
	return lines
}

// TestOverlayIsItsMaterialisation applies random ad-hoc operations to an
// overlay over a random schema — unchecked, so a sequence also leaves half
// an operation behind where a later step of it fails — and after each one
// holds the overlay to two properties. It is its materialisation: every
// SchemaView method, for every node, data element and edge the base or
// the view knows, answers what the materialised schema answers, list order
// included, and so does every accessor of its topology index. And it
// never writes through: after appending to every slice the overlay handed
// out, no list of the base has the appended entry behind its end, and at
// the end the base equals the clone taken before the first operation.
func TestOverlayIsItsMaterialisation(t *testing.T) {
	junkEdge, junkDataEdge := &model.Edge{From: "junk"}, &model.DataEdge{Activity: "junk"}
	junkElement := &model.DataElement{ID: "junk"}
	for trial := 0; trial < 40; trial++ {
		name := fmt.Sprintf("prop%d", trial)
		base := sim.RandomSchema(rand.New(rand.NewSource(int64(trial)+4200)), name, sim.DefaultSchemaOpts())
		before := base.Clone()
		o := storage.NewOverlay(base)
		rng := rand.New(rand.NewSource(int64(trial)*11 + 3))
		for step := 0; step < 12; step++ {
			var applied []string
			for _, op := range sim.RandomAdHocOps(rng, o, step) {
				applied = append(applied, fmt.Sprintf("%s (%v)", op, op.ApplyTo(o)))
			}
			ctx := fmt.Sprintf("trial %d step %d %v", trial, step, applied)

			nodes := slices.Concat(base.NodeIDs(), o.NodeIDs())
			var elems []string
			for _, d := range slices.Concat(base.DataElements(), o.DataElements()) {
				elems = append(elems, d.ID)
			}
			var keys []model.EdgeKey
			for _, e := range slices.Concat(base.Edges(), o.Edges()) {
				keys = append(keys, e.Key())
			}
			mat, err := storage.Materialize(o, o.SchemaID(), o.TypeName(), o.Version())
			if err != nil {
				t.Fatalf("%s: materialize: %v", ctx, err)
			}
			got, want := describe(o, nodes, elems, keys), describe(mat, nodes, elems, keys)
			if len(got) != len(want) {
				t.Fatalf("%s: the overlay answers %d lines, its materialisation %d", ctx, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s:\noverlay         %s\nmaterialisation %s", ctx, got[i], want[i])
				}
			}

			// Append to everything handed out, then look behind the end of
			// every list of the base.
			_ = append(o.NodeIDs(), "junk")
			_ = append(o.Edges(), junkEdge)
			_ = append(o.DataElements(), junkElement)
			_ = append(o.DataEdges(), junkDataEdge)
			for _, id := range nodes {
				_ = append(o.DataEdgesOf(id), junkDataEdge)
			}
			if ids := base.NodeIDs(); slices.Contains(ids[:cap(ids)], "junk") {
				t.Fatalf("%s: an append to NodeIDs() wrote into the base", ctx)
			}
			if es := base.Edges(); slices.Contains(es[:cap(es)], junkEdge) {
				t.Fatalf("%s: an append to Edges() wrote into the base", ctx)
			}
			baseDataEdges := [][]*model.DataEdge{base.DataEdges()}
			for _, id := range base.NodeIDs() {
				baseDataEdges = append(baseDataEdges, base.DataEdgesOf(id))
			}
			for _, des := range baseDataEdges {
				if slices.Contains(des[:cap(des)], junkDataEdge) {
					t.Fatalf("%s: an append to a data-edge list wrote into the base", ctx)
				}
			}
		}
		if !model.Equal(base, before) {
			t.Fatalf("trial %d: the base schema changed under its overlay", trial)
		}
	}
}
