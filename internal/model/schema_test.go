package model

import (
	"encoding/json"
	"testing"
)

func mustAdd(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func seqSchema(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema("s1", "demo", 1)
	mustAdd(t, s.AddNode(&Node{ID: "start", Type: NodeStart}))
	mustAdd(t, s.AddNode(&Node{ID: "a", Type: NodeActivity, Role: "clerk"}))
	mustAdd(t, s.AddNode(&Node{ID: "b", Type: NodeActivity, Role: "clerk"}))
	mustAdd(t, s.AddNode(&Node{ID: "end", Type: NodeEnd}))
	mustAdd(t, s.AddEdge(&Edge{From: "start", To: "a", Type: EdgeControl}))
	mustAdd(t, s.AddEdge(&Edge{From: "a", To: "b", Type: EdgeControl}))
	mustAdd(t, s.AddEdge(&Edge{From: "b", To: "end", Type: EdgeControl}))
	mustAdd(t, s.AddDataElement(&DataElement{ID: "d1", Type: TypeInt}))
	mustAdd(t, s.AddDataEdge(&DataEdge{Activity: "a", Element: "d1", Access: Write, Parameter: "out"}))
	mustAdd(t, s.AddDataEdge(&DataEdge{Activity: "b", Element: "d1", Access: Read, Parameter: "in", Mandatory: true}))
	return s
}

func TestSchemaAccessors(t *testing.T) {
	s := seqSchema(t)
	if s.SchemaID() != "s1" || s.TypeName() != "demo" || s.Version() != 1 {
		t.Fatalf("metadata mismatch: %q %q %d", s.SchemaID(), s.TypeName(), s.Version())
	}
	if s.StartID() != "start" || s.EndID() != "end" {
		t.Fatalf("start/end detection failed: %q %q", s.StartID(), s.EndID())
	}
	if got := len(s.NodeIDs()); got != 4 {
		t.Fatalf("want 4 nodes, got %d", got)
	}
	if got := len(s.Edges()); got != 3 {
		t.Fatalf("want 3 edges, got %d", got)
	}
	if !s.HasEdge(EdgeKey{From: "a", To: "b", Type: EdgeControl}) {
		t.Fatal("edge a->b missing")
	}
	if s.HasEdge(EdgeKey{From: "a", To: "b", Type: EdgeSync}) {
		t.Fatal("sync edge a~>b should not exist")
	}
	if got := OutControlEdges(s, "a"); len(got) != 1 || got[0].To != "b" {
		t.Fatalf("OutControlEdges(a) = %v", got)
	}
	if got := InControlEdges(s, "b"); len(got) != 1 || got[0].From != "a" {
		t.Fatalf("InControlEdges(b) = %v", got)
	}
	if got := len(s.DataEdgesOf("a")); got != 1 {
		t.Fatalf("DataEdgesOf(a) = %d edges", got)
	}
}

func TestSchemaMutationErrors(t *testing.T) {
	s := seqSchema(t)
	cases := []struct {
		name string
		err  error
	}{
		{"duplicate node", s.AddNode(&Node{ID: "a", Type: NodeActivity})},
		{"empty node id", s.AddNode(&Node{Type: NodeActivity})},
		{"second start", s.AddNode(&Node{ID: "s2", Type: NodeStart})},
		{"second end", s.AddNode(&Node{ID: "e2", Type: NodeEnd})},
		{"self edge", s.AddEdge(&Edge{From: "a", To: "a", Type: EdgeControl})},
		{"unknown source", s.AddEdge(&Edge{From: "zz", To: "a", Type: EdgeControl})},
		{"unknown target", s.AddEdge(&Edge{From: "a", To: "zz", Type: EdgeControl})},
		{"duplicate edge", s.AddEdge(&Edge{From: "a", To: "b", Type: EdgeControl})},
		{"remove node with edges", s.RemoveNode("a")},
		{"remove missing node", s.RemoveNode("zz")},
		{"remove missing edge", s.RemoveEdge(EdgeKey{From: "b", To: "a", Type: EdgeControl})},
		{"duplicate data element", s.AddDataElement(&DataElement{ID: "d1"})},
		{"empty data element", s.AddDataElement(&DataElement{})},
		{"data edge unknown activity", s.AddDataEdge(&DataEdge{Activity: "zz", Element: "d1", Parameter: "p"})},
		{"data edge unknown element", s.AddDataEdge(&DataEdge{Activity: "a", Element: "zz", Parameter: "p"})},
		{"data edge empty parameter", s.AddDataEdge(&DataEdge{Activity: "a", Element: "d1"})},
		{"duplicate data edge", s.AddDataEdge(&DataEdge{Activity: "a", Element: "d1", Access: Write, Parameter: "out"})},
		{"remove element with edges", s.RemoveDataElement("d1")},
		{"remove missing element", s.RemoveDataElement("zz")},
		{"remove missing data edge", s.RemoveDataEdge(DataEdgeKey{Activity: "a", Element: "d1", Access: Read, Parameter: "x"})},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: expected error, got nil", c.name)
		}
	}
}

func TestSchemaRemoveRoundTrip(t *testing.T) {
	s := seqSchema(t)
	// Remove b entirely: data edge, then edges, then node.
	mustAdd(t, s.RemoveDataEdge(DataEdgeKey{Activity: "b", Element: "d1", Access: Read, Parameter: "in"}))
	mustAdd(t, s.RemoveEdge(EdgeKey{From: "a", To: "b", Type: EdgeControl}))
	mustAdd(t, s.RemoveEdge(EdgeKey{From: "b", To: "end", Type: EdgeControl}))
	mustAdd(t, s.RemoveNode("b"))
	mustAdd(t, s.AddEdge(&Edge{From: "a", To: "end", Type: EdgeControl}))
	if _, ok := s.Node("b"); ok {
		t.Fatal("node b still present")
	}
	if len(s.Edges()) != 2 {
		t.Fatalf("want 2 edges after removal, got %d", len(s.Edges()))
	}
	if got := OutControlEdges(s, "a"); len(got) != 1 || got[0].To != "end" {
		t.Fatalf("OutControlEdges(a) = %v", got)
	}
	// Removing start clears the cached ID.
	mustAdd(t, s.RemoveEdge(EdgeKey{From: "start", To: "a", Type: EdgeControl}))
	mustAdd(t, s.RemoveNode("start"))
	if s.StartID() != "" {
		t.Fatalf("start ID not cleared: %q", s.StartID())
	}
}

func TestSchemaCloneIsDeep(t *testing.T) {
	s := seqSchema(t)
	c := s.Clone()
	if !Equal(s, c) {
		t.Fatal("clone not equal to original")
	}
	// Mutate the clone; the original must not change.
	n, _ := c.Node("a")
	n.Name = "renamed"
	mustAdd(t, c.AddNode(&Node{ID: "x", Type: NodeActivity}))
	mustAdd(t, c.AddEdge(&Edge{From: "a", To: "x", Type: EdgeSync}))
	if _, ok := s.Node("x"); ok {
		t.Fatal("mutating clone leaked into original")
	}
	orig, _ := s.Node("a")
	if orig.Name == "renamed" {
		t.Fatal("node copy is shallow")
	}
	if Equal(s, c) {
		t.Fatal("Equal failed to detect difference")
	}
}

func TestSchemaJSONRoundTrip(t *testing.T) {
	s := seqSchema(t)
	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Schema
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !Equal(s, &back) {
		t.Fatal("JSON round trip lost structure")
	}
	if back.SchemaID() != s.SchemaID() || back.Version() != s.Version() || back.TypeName() != s.TypeName() {
		t.Fatal("JSON round trip lost metadata")
	}
	if back.StartID() != "start" || back.EndID() != "end" {
		t.Fatal("JSON round trip lost start/end detection")
	}
	if err := json.Unmarshal([]byte(`{"nodes":[{"ID":"a"},{"ID":"a"}]}`), &back); err == nil {
		t.Fatal("expected duplicate-node error from unmarshal")
	}
	if err := json.Unmarshal([]byte(`not json`), &back); err == nil {
		t.Fatal("expected syntax error from unmarshal")
	}
}

func TestEqualDetectsDataDifferences(t *testing.T) {
	a := seqSchema(t)
	b := seqSchema(t)
	if !Equal(a, b) {
		t.Fatal("identical schemas not equal")
	}
	mustAdd(t, b.AddDataElement(&DataElement{ID: "d2", Type: TypeBool}))
	if Equal(a, b) {
		t.Fatal("extra data element not detected")
	}
	b2 := seqSchema(t)
	mustAdd(t, b2.RemoveDataEdge(DataEdgeKey{Activity: "b", Element: "d1", Access: Read, Parameter: "in"}))
	mustAdd(t, b2.AddDataEdge(&DataEdge{Activity: "b", Element: "d1", Access: Read, Parameter: "other"}))
	if Equal(a, b2) {
		t.Fatal("different data edge parameter not detected")
	}
}

func TestApproxBytesGrowsWithContent(t *testing.T) {
	small := seqSchema(t)
	large := seqSchema(t)
	for i := 0; i < 20; i++ {
		id := string(rune('k'+i)) + "_node"
		mustAdd(t, large.AddNode(&Node{ID: id, Type: NodeActivity, Name: "activity " + id}))
	}
	if large.ApproxBytes() <= small.ApproxBytes() {
		t.Fatalf("ApproxBytes did not grow: small=%d large=%d", small.ApproxBytes(), large.ApproxBytes())
	}
}

func TestStringMethods(t *testing.T) {
	n := &Node{ID: "a", Name: "Collect Data", Type: NodeActivity}
	if got := n.String(); got != `a[activity "Collect Data"]` {
		t.Errorf("Node.String() = %q", got)
	}
	if got := (&Edge{From: "a", To: "b", Type: EdgeSync}).String(); got != "a~>b" {
		t.Errorf("sync edge String() = %q", got)
	}
	if got := (&Edge{From: "a", To: "b", Type: EdgeLoop}).String(); got != "a=>b" {
		t.Errorf("loop edge String() = %q", got)
	}
	if got := (&DataEdge{Activity: "a", Element: "d", Access: Write, Parameter: "p"}).String(); got != "a --p--> d" {
		t.Errorf("write data edge String() = %q", got)
	}
	if NodeXORSplit.String() != "xor-split" || EdgeSync.String() != "sync" {
		t.Error("enum String() mismatch")
	}
	if NodeType(99).String() == "" || EdgeType(99).String() == "" || DataType(99).String() == "" {
		t.Error("out-of-range enum String() should not be empty")
	}
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("DataAccess String() mismatch")
	}
}

func TestMatchingJoin(t *testing.T) {
	for split, join := range map[NodeType]NodeType{
		NodeANDSplit:  NodeANDJoin,
		NodeXORSplit:  NodeXORJoin,
		NodeLoopStart: NodeLoopEnd,
	} {
		got, ok := split.MatchingJoin()
		if !ok || got != join {
			t.Errorf("MatchingJoin(%s) = %s, %v", split, got, ok)
		}
	}
	if _, ok := NodeActivity.MatchingJoin(); ok {
		t.Error("activity should have no matching join")
	}
	if NodeANDSplit.IsJoin() || !NodeLoopEnd.IsJoin() || !NodeXORJoin.IsJoin() || NodeActivity.IsJoin() {
		t.Error("type predicates mismatch")
	}
}

func TestDataTypeZeroValues(t *testing.T) {
	if TypeInt.ZeroValue() != int64(0) {
		t.Error("int zero")
	}
	if TypeBool.ZeroValue() != false {
		t.Error("bool zero")
	}
	if TypeFloat.ZeroValue() != float64(0) {
		t.Error("float zero")
	}
	if TypeString.ZeroValue() != "" {
		t.Error("string zero")
	}
}
