package state

import (
	"testing"

	"adept2/internal/graph"
	"adept2/internal/history"
	"adept2/internal/model"
)

// parSchema: start -> AND[ a1->a2 | b1 ] -> end with sync a1 ~> b1.
func parSchema(t *testing.T) *model.Schema {
	t.Helper()
	b := model.NewBuilder("par")
	p := b.Parallel(
		b.Seq(b.Activity("a1", "A1", model.WithRole("r")), b.Activity("a2", "A2", model.WithRole("r"))),
		b.Activity("b1", "B1", model.WithRole("r")),
	)
	b.Sync("a1", "b1")
	s, err := b.Build(p)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return s
}

// xorSchema: start -> split(code0->x | code1->y) -> join -> end.
func xorSchema(t *testing.T) *model.Schema {
	t.Helper()
	b := model.NewBuilder("xor")
	ch := b.Choice("",
		b.Activity("x", "X", model.WithRole("r")),
		b.Activity("y", "Y", model.WithRole("r")),
	)
	s, err := b.Build(ch)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return s
}

func findNode(t *testing.T, s *model.Schema, tp model.NodeType) string {
	t.Helper()
	for _, n := range s.Nodes() {
		if n.Type == tp {
			return n.ID
		}
	}
	t.Fatalf("no node of type %s", tp)
	return ""
}

func run(t *testing.T, v model.SchemaView, m *Marking, id string, decision int) {
	t.Helper()
	if err := m.Start(id); err != nil {
		t.Fatalf("start %s: %v", id, err)
	}
	if err := m.Complete(v, id, decision); err != nil {
		t.Fatalf("complete %s: %v", id, err)
	}
	Evaluate(v, m)
}

func TestMarkingLifecycleBasics(t *testing.T) {
	s := parSchema(t)
	m := NewMarking(s)
	m.Init(s)
	Evaluate(s, m)

	split := findNode(t, s, model.NodeANDSplit)
	if m.Node(split) != Activated {
		t.Fatalf("AND split should be activated, is %s", m.Node(split))
	}
	run(t, s, m, split, -1)
	if m.Node("a1") != Activated {
		t.Fatalf("a1 should be activated, is %s", m.Node("a1"))
	}
	// b1 waits for the sync edge from a1.
	if m.Node("b1") != NotActivated {
		t.Fatalf("b1 must wait for sync edge, is %s", m.Node("b1"))
	}
	run(t, s, m, "a1", -1)
	if m.Node("b1") != Activated {
		t.Fatalf("b1 should be activated after sync signal, is %s", m.Node("b1"))
	}
	run(t, s, m, "a2", -1)
	join := findNode(t, s, model.NodeANDJoin)
	if m.Node(join) != NotActivated {
		t.Fatalf("join must wait for b1, is %s", m.Node(join))
	}
	run(t, s, m, "b1", -1)
	if m.Node(join) != Activated {
		t.Fatalf("join should be activated, is %s", m.Node(join))
	}
	run(t, s, m, join, -1)
	if m.Node(s.EndID()) != Activated {
		t.Fatalf("end should be activated, is %s", m.Node(s.EndID()))
	}
}

func TestMarkingTransitionErrors(t *testing.T) {
	s := parSchema(t)
	m := NewMarking(s)
	m.Init(s)
	Evaluate(s, m)
	if err := m.Start("a1"); err == nil {
		t.Fatal("starting a non-activated node must fail")
	}
	if err := m.Complete(s, "a1", -1); err == nil {
		t.Fatal("completing a non-running node must fail")
	}
	split := findNode(t, s, model.NodeANDSplit)
	if err := m.Start(split); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(split); err == nil {
		t.Fatal("double start must fail")
	}
	if err := m.Complete(s, "ghost", -1); err == nil {
		t.Fatal("completing unknown node must fail")
	}
}

func TestXORSkipPropagation(t *testing.T) {
	s := xorSchema(t)
	m := NewMarking(s)
	m.Init(s)
	Evaluate(s, m)
	split := findNode(t, s, model.NodeXORSplit)

	// Choose branch to x (code 0) at #6: y's path dies in the evaluation
	// after it.
	stats := boundStats(s.Topology())
	stats.OnStart(split, 5)
	if err := m.Start(split); err != nil {
		t.Fatal(err)
	}
	stats.OnComplete(split, 6, 0)
	if err := m.Complete(s, split, 0); err != nil {
		t.Fatal(err)
	}
	Evaluate(s, m)
	if m.Node("x") != Activated {
		t.Fatalf("x should be activated, is %s", m.Node("x"))
	}
	if m.Node("y") != Skipped {
		t.Fatalf("y should be skipped, is %s", m.Node("y"))
	}
	if got := skipSeq(m, "y", stats); got != 7 {
		t.Fatalf("skip seq of y = %d, want 7", got)
	}
	if got := skipSeq(m, "x", stats); got != 0 {
		t.Fatalf("skip seq of activated x = %d, want 0", got)
	}
	// Join waits for x, then fires with one true edge.
	join := findNode(t, s, model.NodeXORJoin)
	if m.Node(join) != NotActivated {
		t.Fatalf("join premature: %s", m.Node(join))
	}
	run(t, s, m, "x", -1)
	if m.Node(join) != Activated {
		t.Fatalf("join should be activated, is %s", m.Node(join))
	}
	if got := m.NodesInState(Skipped); len(got) != 1 || got[0] != "y" {
		t.Fatalf("NodesInState(Skipped) = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := xorSchema(t)
	m := NewMarking(s)
	m.Init(s)
	Evaluate(s, m)
	c := m.Clone()
	split := findNode(t, s, model.NodeXORSplit)
	if err := c.Start(split); err != nil {
		t.Fatal(err)
	}
	if m.Node(split) != Activated {
		t.Fatal("clone mutation leaked into original")
	}
	if c.ApproxBytes() == 0 {
		t.Fatal("accounting broken")
	}
}

func TestResetLoop(t *testing.T) {
	b := model.NewBuilder("loop")
	loop := b.Loop(b.Activity("w", "W", model.WithRole("r")), "", 0)
	s, err := b.Build(loop)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	info, err := graph.Analyze(s)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	ls := findNode(t, s, model.NodeLoopStart)
	le := findNode(t, s, model.NodeLoopEnd)

	m := NewMarking(s)
	m.Init(s)
	Evaluate(s, m)
	run(t, s, m, ls, -1)
	run(t, s, m, "w", -1)
	if m.Node(le) != Activated {
		t.Fatalf("loop end should be activated, is %s", m.Node(le))
	}
	// Simulate "again": start the loop end, then reset the region without
	// completing it.
	if err := m.Start(le); err != nil {
		t.Fatal(err)
	}
	blk, _ := info.ByJoin(le)
	ResetLoop(s, m, blk.Region())
	if m.Node("w") != NotActivated || m.Node(le) != NotActivated {
		t.Fatal("region not reset")
	}
	Evaluate(s, m)
	if m.Node(ls) != Activated {
		t.Fatalf("loop start should re-activate, is %s", m.Node(ls))
	}
}

func TestAdaptPreservesStartedWorkAndRederivesSkips(t *testing.T) {
	s := xorSchema(t)
	m := NewMarking(s)
	m.Init(s)
	Evaluate(s, m)
	split := findNode(t, s, model.NodeXORSplit)
	stats := boundStats(s.Topology())
	stats.OnStart(split, 1)
	if err := m.Start(split); err != nil {
		t.Fatal(err)
	}
	stats.OnComplete(split, 2, 0)
	if err := m.Complete(s, split, 0); err != nil {
		t.Fatal(err)
	}
	Evaluate(s, m)
	stats.OnStart("x", 3)
	stats.OnComplete("x", 4, -1)
	run(t, s, m, "x", -1)

	// The decision Adapt re-signals the split with comes from the index.
	before := m.Node("x")
	activated := Adapt(s, m, stats)
	if m.Node("x") != before {
		t.Fatalf("adapt changed completed node state to %s", m.Node("x"))
	}
	if m.Node("y") != Skipped {
		t.Fatalf("adapt lost the skip of y: %s", m.Node("y"))
	}
	if got := skipSeq(m, "y", stats); got != 3 {
		t.Fatalf("y died after the split's completion at #2, derived stamp %d", got)
	}
	join := findNode(t, s, model.NodeXORJoin)
	found := false
	for _, id := range activated {
		if id == join {
			found = true
		}
	}
	if !found {
		t.Fatalf("join should be (re)activated by adapt, got %v", activated)
	}
}

func TestAdaptAfterSerialInsertionDemotesActivatedSuccessor(t *testing.T) {
	// start -> a -> c -> end; a completed, c activated. Insert n between a
	// and c: c must fall back to NotActivated, n becomes activated.
	b := model.NewBuilder("ins")
	s, err := b.Build(b.Seq(b.Activity("a", "A", model.WithRole("r")), b.Activity("c", "C", model.WithRole("r"))))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m := NewMarking(s)
	m.Init(s)
	Evaluate(s, m)
	run(t, s, m, "a", -1)
	if m.Node("c") != Activated {
		t.Fatalf("c should be activated, is %s", m.Node("c"))
	}

	if err := s.RemoveEdge(model.EdgeKey{From: "a", To: "c", Type: model.EdgeControl}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddNode(&model.Node{ID: "n", Type: model.NodeActivity, Role: "r"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(&model.Edge{From: "a", To: "n", Type: model.EdgeControl}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(&model.Edge{From: "n", To: "c", Type: model.EdgeControl}); err != nil {
		t.Fatal(err)
	}
	Adapt(s, m, boundStats(s.Topology()))
	if m.Node("n") != Activated {
		t.Fatalf("inserted node should be activated, is %s", m.Node("n"))
	}
	if m.Node("c") != NotActivated {
		t.Fatalf("c should be demoted to not-activated, is %s", m.Node("c"))
	}
	if m.Node("a") != Completed {
		t.Fatalf("a must stay completed, is %s", m.Node("a"))
	}
}

func TestAdaptDropsDeletedNodes(t *testing.T) {
	b := model.NewBuilder("del")
	s, err := b.Build(b.Seq(b.Activity("a", "A", model.WithRole("r")), b.Activity("c", "C", model.WithRole("r"))))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m := NewMarking(s)
	m.Init(s)
	Evaluate(s, m)
	run(t, s, m, "a", -1)

	// Delete c (not started): rewire a -> end.
	if err := s.RemoveEdge(model.EdgeKey{From: "a", To: "c", Type: model.EdgeControl}); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveEdge(model.EdgeKey{From: "c", To: "end", Type: model.EdgeControl}); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveNode("c"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddEdge(&model.Edge{From: "a", To: "end", Type: model.EdgeControl}); err != nil {
		t.Fatal(err)
	}
	Adapt(s, m, boundStats(s.Topology()))
	if m.Node(s.EndID()) != Activated {
		t.Fatalf("end should be activated after delete, is %s", m.Node(s.EndID()))
	}
}

func TestStateStrings(t *testing.T) {
	if NotActivated.String() != "not-activated" || Running.String() != "running" || Skipped.String() != "skipped" {
		t.Fatal("NodeState strings")
	}
	if NotSignaled.String() != "not-signaled" || TrueSignaled.String() != "true-signaled" {
		t.Fatal("EdgeState strings")
	}
	if NodeState(99).String() == "" || EdgeState(99).String() == "" {
		t.Fatal("out-of-range strings")
	}
	if !Running.Started() || !Completed.Started() || Activated.Started() {
		t.Fatal("Started predicate")
	}
}

// boundStats returns an empty execution index bound to the topology, as
// an instance's is to its view's.
func boundStats(topo *model.Topology) *history.Stats {
	st := &history.Stats{}
	st.Reset(topo)
	return st
}
