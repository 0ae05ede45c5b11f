package state

import (
	"reflect"
	"testing"

	"adept2/internal/model"
)

// chainSchema builds start -> a -> b -> end.
func chainSchema(t *testing.T, id string) *model.Schema {
	t.Helper()
	s := model.NewSchema(id, "t", 1)
	for _, n := range []*model.Node{
		{ID: "start", Name: "start", Type: model.NodeStart, Auto: true},
		{ID: "a", Name: "a", Type: model.NodeActivity, Role: "r"},
		{ID: "b", Name: "b", Type: model.NodeActivity, Role: "r"},
		{ID: "end", Name: "end", Type: model.NodeEnd, Auto: true},
	} {
		if err := s.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []*model.Edge{
		{From: "start", To: "a", Type: model.EdgeControl},
		{From: "a", To: "b", Type: model.EdgeControl},
		{From: "b", To: "end", Type: model.EdgeControl},
	} {
		if err := s.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestMarkingExportImportRoundTrip(t *testing.T) {
	s := chainSchema(t, "s1")
	m := NewMarking(s)
	m.Init(s)
	Evaluate(s, m)
	if err := m.Start("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.Complete(s, "a", -1); err != nil {
		t.Fatal(err)
	}
	Evaluate(s, m)

	ex := m.Export(boundStats(s.Topology()))
	// Import against a freshly parsed clone of the schema: the topology is
	// rebuilt from scratch, so only the stable keys may be consulted.
	s2 := chainSchema(t, "s1")
	m2 := &Marking{}
	if err := m2.Import(s2, ex); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"start", "a", "b", "end"} {
		if m.Node(id) != m2.Node(id) {
			t.Fatalf("node %s: %s != %s", id, m.Node(id), m2.Node(id))
		}
	}
	if m2.Node("b") != Activated {
		t.Fatalf("b = %s", m2.Node("b"))
	}
}

func TestImportMarkingRejectsForeignNodes(t *testing.T) {
	s := chainSchema(t, "s1")
	if err := (&Marking{}).Import(s, &MarkingExport{Nodes: []ExportedNode{{ID: "ghost", State: uint8(Completed)}}}); err == nil {
		t.Fatal("unknown node must be rejected")
	}
	if err := (&Marking{}).Import(s, &MarkingExport{Edges: []ExportedEdge{{From: "x", To: "y", State: uint8(TrueSignaled)}}}); err == nil {
		t.Fatal("unknown edge must be rejected")
	}
}

// TestRebindToMatchesRemap drives the pooled rebind across two topologies
// and checks it agrees with the allocating remap, including scratch reuse.
func TestRebindToMatchesRemap(t *testing.T) {
	src := chainSchema(t, "src")
	dst := chainSchema(t, "dst")
	if err := dst.AddNode(&model.Node{ID: "c", Name: "c", Type: model.NodeActivity, Role: "r"}); err != nil {
		t.Fatal(err)
	}
	if err := dst.RemoveEdge(model.EdgeKey{From: "b", To: "end", Type: model.EdgeControl}); err != nil {
		t.Fatal(err)
	}
	for _, e := range []*model.Edge{
		{From: "b", To: "c", Type: model.EdgeControl},
		{From: "c", To: "end", Type: model.EdgeControl},
	} {
		if err := dst.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}

	sc := &RemapScratch{}
	for iter := 0; iter < 3; iter++ { // iterations >0 exercise the recycled arrays
		mk := func() *Marking {
			m := NewMarking(src)
			m.Init(src)
			Evaluate(src, m)
			if err := m.Start("a"); err != nil {
				t.Fatal(err)
			}
			if err := m.Complete(src, "a", -1); err != nil {
				t.Fatal(err)
			}
			return m
		}
		pooled, plain := mk(), mk()
		pooled.RebindTo(dst.Topology(), sc)
		plain.RebindTo(dst.Topology(), nil)
		if pooled.Topology() != dst.Topology() {
			t.Fatal("pooled rebind did not bind the target topology")
		}
		if !reflect.DeepEqual(pooled.nodes, plain.nodes) || !reflect.DeepEqual(pooled.edges, plain.edges) {
			t.Fatalf("iter %d: pooled rebind diverged from remap", iter)
		}
		// Both must evaluate identically afterwards.
		a1 := Evaluate(dst, pooled)
		a2 := Evaluate(dst, plain)
		if !reflect.DeepEqual(a1, a2) {
			t.Fatalf("activations diverged: %v vs %v", a1, a2)
		}
	}
}
