package storage

import (
	"testing"

	"adept2/internal/model"
)

func baseSchema(t *testing.T) *model.Schema {
	t.Helper()
	b := model.NewBuilder("base")
	b.DataElement("d", model.TypeString)
	a := b.Activity("a", "A", model.WithRole("r"))
	c := b.Activity("c", "C", model.WithRole("r"))
	x := b.Activity("x", "X", model.WithRole("r"))
	b.Write("a", "d", "out")
	b.Read("c", "d", "in", true)
	s, err := b.Build(b.Seq(a, c, x))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return s
}

func TestOverlayTransparentWhenEmpty(t *testing.T) {
	base := baseSchema(t)
	o := NewOverlay(base)
	if !model.Equal(base, o) {
		t.Fatal("empty overlay must equal base")
	}
	if o.SchemaID() != base.SchemaID()+"+bias" {
		t.Fatalf("SchemaID = %q", o.SchemaID())
	}
	if o.TypeName() != "base" || o.Version() != 1 {
		t.Fatal("metadata passthrough")
	}
	if o.StartID() != base.StartID() || o.EndID() != base.EndID() {
		t.Fatal("start/end passthrough")
	}
	if o.ApproxBytes() != 0 {
		t.Fatal("empty overlay must cost ~0 bytes")
	}
}

func TestOverlayAddAndRemove(t *testing.T) {
	base := baseSchema(t)
	o := NewOverlay(base)
	// Insert n between a and c (the serial-insert rewiring).
	if err := o.RemoveEdge(model.EdgeKey{From: "a", To: "c", Type: model.EdgeControl}); err != nil {
		t.Fatal(err)
	}
	if err := o.AddNode(&model.Node{ID: "n", Type: model.NodeActivity, Role: "r"}); err != nil {
		t.Fatal(err)
	}
	if err := o.AddEdge(&model.Edge{From: "a", To: "n", Type: model.EdgeControl}); err != nil {
		t.Fatal(err)
	}
	if err := o.AddEdge(&model.Edge{From: "n", To: "c", Type: model.EdgeControl}); err != nil {
		t.Fatal(err)
	}
	if _, ok := o.Node("n"); !ok {
		t.Fatal("added node invisible")
	}
	if o.HasEdge(model.EdgeKey{From: "a", To: "c", Type: model.EdgeControl}) {
		t.Fatal("removed edge still visible")
	}
	if got := model.OutControlEdges(o, "a"); len(got) != 1 || got[0].To != "n" {
		t.Fatalf("OutControlEdges(a) = %v", got)
	}
	if got := model.InControlEdges(o, "c"); len(got) != 1 || got[0].From != "n" {
		t.Fatalf("InControlEdges(c) = %v", got)
	}
	// The base is untouched.
	if _, ok := base.Node("n"); ok {
		t.Fatal("overlay mutation leaked into base")
	}
	if !base.HasEdge(model.EdgeKey{From: "a", To: "c", Type: model.EdgeControl}) {
		t.Fatal("base edge removed")
	}
	// Node enumeration contains base and added nodes exactly once.
	seen := map[string]int{}
	for _, id := range o.NodeIDs() {
		seen[id]++
	}
	if seen["n"] != 1 || seen["a"] != 1 || len(seen) != len(base.Nodes())+1 {
		t.Fatalf("NodeIDs = %v", o.NodeIDs())
	}
	if len(o.addedNodes) != 1 || len(o.addedEdges) != 2 || len(o.removedEdges) != 1 {
		t.Fatalf("delta = %d added nodes, %d added edges, %d removed edges", len(o.addedNodes), len(o.addedEdges), len(o.removedEdges))
	}
	if o.ApproxBytes() == 0 {
		t.Fatal("delta must have a footprint")
	}
}

func TestOverlayMatchesDirectApplication(t *testing.T) {
	base := baseSchema(t)
	o := NewOverlay(base)
	ref := base.Clone()

	apply := func(v model.MutableView) {
		if err := v.RemoveEdge(model.EdgeKey{From: "c", To: "x", Type: model.EdgeControl}); err != nil {
			t.Fatal(err)
		}
		if err := v.AddNode(&model.Node{ID: "n", Type: model.NodeActivity, Role: "r"}); err != nil {
			t.Fatal(err)
		}
		if err := v.AddEdge(&model.Edge{From: "c", To: "n", Type: model.EdgeControl}); err != nil {
			t.Fatal(err)
		}
		if err := v.AddEdge(&model.Edge{From: "n", To: "x", Type: model.EdgeControl}); err != nil {
			t.Fatal(err)
		}
		if err := v.AddDataElement(&model.DataElement{ID: "e2", Type: model.TypeInt}); err != nil {
			t.Fatal(err)
		}
		if err := v.AddDataEdge(&model.DataEdge{Activity: "n", Element: "e2", Access: model.Write, Parameter: "p"}); err != nil {
			t.Fatal(err)
		}
		if err := v.RemoveDataEdge(model.DataEdgeKey{Activity: "c", Element: "d", Access: model.Read, Parameter: "in"}); err != nil {
			t.Fatal(err)
		}
	}
	apply(o)
	apply(ref)
	if !model.Equal(ref, o) {
		t.Fatal("overlay view differs from direct application")
	}
	// Materialization produces an equal standalone schema.
	mat, err := Materialize(o, "mat", "base", 1)
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	if !model.Equal(ref, mat) {
		t.Fatal("materialization differs")
	}
}

func TestOverlayRemoveThenReAdd(t *testing.T) {
	base := baseSchema(t)
	o := NewOverlay(base)
	// Detach and delete x, then re-add it elsewhere (the move pattern).
	for _, k := range []model.EdgeKey{
		{From: "c", To: "x", Type: model.EdgeControl},
		{From: "x", To: "end", Type: model.EdgeControl},
	} {
		if err := o.RemoveEdge(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.AddEdge(&model.Edge{From: "c", To: "end", Type: model.EdgeControl}); err != nil {
		t.Fatal(err)
	}
	if err := o.RemoveNode("x"); err != nil {
		t.Fatal(err)
	}
	if _, ok := o.Node("x"); ok {
		t.Fatal("x should be hidden")
	}
	// Re-add between a and c.
	if err := o.AddNode(&model.Node{ID: "x", Type: model.NodeActivity, Role: "r"}); err != nil {
		t.Fatalf("re-add: %v", err)
	}
	if err := o.RemoveEdge(model.EdgeKey{From: "a", To: "c", Type: model.EdgeControl}); err != nil {
		t.Fatal(err)
	}
	if err := o.AddEdge(&model.Edge{From: "a", To: "x", Type: model.EdgeControl}); err != nil {
		t.Fatal(err)
	}
	if err := o.AddEdge(&model.Edge{From: "x", To: "c", Type: model.EdgeControl}); err != nil {
		t.Fatal(err)
	}
	if _, ok := o.Node("x"); !ok {
		t.Fatal("re-added node invisible")
	}
	// Removing the re-added node hides it again (base stays hidden too).
	for _, k := range []model.EdgeKey{
		{From: "a", To: "x", Type: model.EdgeControl},
		{From: "x", To: "c", Type: model.EdgeControl},
	} {
		if err := o.RemoveEdge(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.AddEdge(&model.Edge{From: "a", To: "c", Type: model.EdgeControl}); err != nil {
		t.Fatal(err)
	}
	if err := o.RemoveNode("x"); err != nil {
		t.Fatal(err)
	}
	if _, ok := o.Node("x"); ok {
		t.Fatal("x should be hidden after second removal")
	}
}

func TestOverlayValidation(t *testing.T) {
	base := baseSchema(t)
	o := NewOverlay(base)
	cases := []struct {
		name string
		err  error
	}{
		{"dup node", o.AddNode(&model.Node{ID: "a", Type: model.NodeActivity})},
		{"empty node", o.AddNode(&model.Node{})},
		{"second start", o.AddNode(&model.Node{ID: "s2", Type: model.NodeStart})},
		{"second end", o.AddNode(&model.Node{ID: "e2", Type: model.NodeEnd})},
		{"self edge", o.AddEdge(&model.Edge{From: "a", To: "a", Type: model.EdgeControl})},
		{"unknown source", o.AddEdge(&model.Edge{From: "zz", To: "a", Type: model.EdgeControl})},
		{"unknown target", o.AddEdge(&model.Edge{From: "a", To: "zz", Type: model.EdgeControl})},
		{"dup edge", o.AddEdge(&model.Edge{From: "a", To: "c", Type: model.EdgeControl})},
		{"remove node with edges", o.RemoveNode("a")},
		{"remove missing node", o.RemoveNode("zz")},
		{"remove missing edge", o.RemoveEdge(model.EdgeKey{From: "c", To: "a", Type: model.EdgeControl})},
		{"dup data element", o.AddDataElement(&model.DataElement{ID: "d"})},
		{"empty data element", o.AddDataElement(&model.DataElement{})},
		{"data edge unknown activity", o.AddDataEdge(&model.DataEdge{Activity: "zz", Element: "d", Parameter: "p"})},
		{"data edge unknown element", o.AddDataEdge(&model.DataEdge{Activity: "a", Element: "zz", Parameter: "p"})},
		{"data edge empty param", o.AddDataEdge(&model.DataEdge{Activity: "a", Element: "d"})},
		{"dup data edge", o.AddDataEdge(&model.DataEdge{Activity: "a", Element: "d", Access: model.Write, Parameter: "out"})},
		{"remove element with edges", o.RemoveDataElement("d")},
		{"remove missing element", o.RemoveDataElement("zz")},
		{"remove missing data edge", o.RemoveDataEdge(model.DataEdgeKey{Activity: "a", Element: "d", Access: model.Read, Parameter: "zz"})},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if o.ApproxBytes() != 0 || !model.Equal(base, o) {
		t.Fatal("failed mutations must leave the overlay empty")
	}
}

func TestOverlayDataElementOps(t *testing.T) {
	base := baseSchema(t)
	o := NewOverlay(base)
	if err := o.AddDataElement(&model.DataElement{ID: "n1", Type: model.TypeBool}); err != nil {
		t.Fatal(err)
	}
	if got := len(o.DataElements()); got != 2 {
		t.Fatalf("data elements = %d", got)
	}
	if err := o.RemoveDataElement("n1"); err != nil {
		t.Fatal(err)
	}
	if got := len(o.DataElements()); got != 1 {
		t.Fatalf("after removal: %d", got)
	}
	// Removing a base element requires its edges gone first.
	if err := o.RemoveDataEdge(model.DataEdgeKey{Activity: "a", Element: "d", Access: model.Write, Parameter: "out"}); err != nil {
		t.Fatal(err)
	}
	if err := o.RemoveDataEdge(model.DataEdgeKey{Activity: "c", Element: "d", Access: model.Read, Parameter: "in"}); err != nil {
		t.Fatal(err)
	}
	if err := o.RemoveDataElement("d"); err != nil {
		t.Fatal(err)
	}
	if _, ok := o.DataElement("d"); ok {
		t.Fatal("base element should be hidden")
	}
	if _, ok := base.DataElement("d"); !ok {
		t.Fatal("base must be untouched")
	}
}
