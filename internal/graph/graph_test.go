package graph

import (
	"slices"
	"strings"
	"testing"

	"adept2/internal/bitset"
	"adept2/internal/model"
)

// in reports whether the node is in a node set of info's analysis.
func in(info *Info, set bitset.Set, id string) bool {
	n, ok := info.Topology().Idx(id)
	return ok && set.Has(int(n))
}

// minimalRegion returns the smallest block whose region holds all the
// given nodes, or nil if only the whole schema does: the "minimal
// substitution block" of the paper's hybrid storage representation.
func minimalRegion(info *Info, ids ...string) *Block {
	for _, b := range info.Blocks() { // innermost-first
		if !slices.ContainsFunc(ids, func(id string) bool { return !in(info, b.Region(), id) }) {
			return b
		}
	}
	return nil
}

// buildSeq assembles start -> a -> b -> c -> end.
func buildSeq(t *testing.T) *model.Schema {
	t.Helper()
	b := model.NewBuilder("seq")
	s, err := b.Build(b.Seq(b.Activity("a", "A"), b.Activity("b", "B"), b.Activity("c", "C")))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return s
}

// buildParallel assembles a parallel block with two branches of two
// activities each plus a sync edge a1 ~> b2.
func buildParallel(t *testing.T) *model.Schema {
	t.Helper()
	b := model.NewBuilder("par")
	p := b.Parallel(
		b.Seq(b.Activity("a1", "A1"), b.Activity("a2", "A2")),
		b.Seq(b.Activity("b1", "B1"), b.Activity("b2", "B2")),
	)
	b.Sync("a1", "b2")
	s, err := b.Build(p)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return s
}

func TestTopoOrderSequence(t *testing.T) {
	s := buildSeq(t)
	order, err := TopoOrder(s, Control)
	if err != nil {
		t.Fatalf("topo: %v", err)
	}
	pos := map[string]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range s.Edges() {
		if e.Type == model.EdgeControl && pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %s violates topological order", e)
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	s := buildParallel(t)
	// Sync edge b2 ~> a1 closes a cycle with a1 ~> b2.
	if err := s.AddEdge(&model.Edge{From: "b2", To: "a1", Type: model.EdgeSync}); err != nil {
		t.Fatalf("add edge: %v", err)
	}
	if _, err := TopoOrder(s, ControlAndSync); err == nil {
		t.Fatal("expected cycle error")
	} else if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Control-only view stays acyclic.
	if _, err := TopoOrder(s, Control); err != nil {
		t.Fatalf("control-only topo: %v", err)
	}
}

func TestReachableAndHasPath(t *testing.T) {
	s := buildParallel(t)
	fwd := Reachable(s, "a1", Control, true)
	if !fwd["a2"] || fwd["b1"] {
		t.Fatalf("forward reach from a1: %v", fwd)
	}
	back := Reachable(s, "b2", Control, false)
	if !back["b1"] || back["a2"] {
		t.Fatalf("backward reach from b2: %v", back)
	}
	if !HasPath(s, s.StartID(), s.EndID(), Control) {
		t.Fatal("start must reach end")
	}
	if HasPath(s, "a2", "b1", Control) {
		t.Fatal("parallel branches must not be control-connected")
	}
	if !HasPath(s, "a1", "b2", ControlAndSync) {
		t.Fatal("sync edge must connect branches in control+sync view")
	}
	if !HasPath(s, "a1", "a1", Control) {
		t.Fatal("trivial self path expected")
	}
}

func TestAnalyzeSequenceHasNoBlocks(t *testing.T) {
	info, err := Analyze(buildSeq(t))
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if len(info.Blocks()) != 0 {
		t.Fatalf("sequence should have no blocks, got %d", len(info.Blocks()))
	}
	if path := info.Path("b"); len(path) != 0 {
		t.Fatalf("no block should contain b, got %q..%q", path[0].Block.Split, path[0].Block.Join)
	}
}

func TestAnalyzeParallelBlock(t *testing.T) {
	s := buildParallel(t)
	info, err := Analyze(s)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if len(info.Blocks()) != 1 {
		t.Fatalf("want 1 block, got %d", len(info.Blocks()))
	}
	b := info.Blocks()[0]
	if b.Kind != model.NodeANDSplit || len(b.Branches) != 2 {
		t.Fatalf("block mismatch: kind=%s branches=%d", b.Kind, len(b.Branches))
	}
	if !in(info, b.Inside, "a1") || !in(info, b.Inside, "b2") || in(info, b.Inside, s.StartID()) {
		t.Fatalf("inside set wrong: %v", b.Inside)
	}
	if pa, pb := info.Path("a1"), info.Path("b1"); len(pa) != 1 || len(pb) != 1 || pa[0].Block != b || pb[0].Block != b || pa[0].Branch == pb[0].Branch {
		t.Fatal("a1 and b1 must sit on different branches")
	}
	if len(info.Path("start")) != 0 {
		t.Fatal("start is not inside the block")
	}
	if !in(info, b.Region(), b.Split) || !in(info, b.Region(), b.Join) {
		t.Fatal("block must contain its own split and join")
	}
	if blk, _, _, ok := info.Divergence("a1", "b2"); !ok || blk != b {
		t.Fatal("divergence of a1/b2 should be the AND block")
	}
	if _, _, _, ok := info.Divergence("a1", "a2"); ok {
		t.Fatal("a1/a2 are on the same branch: no divergence")
	}
	if got := minimalRegion(info, "a1", "b2"); got != b {
		t.Fatal("minimal region of {a1,b2} should be the AND block")
	}
	if got := minimalRegion(info, "a1", s.EndID()); got != nil {
		t.Fatal("region spanning end must be nil (whole schema)")
	}
}

func TestAnalyzeNestedBlocks(t *testing.T) {
	b := model.NewBuilder("nested")
	b.DataElement("route", model.TypeInt)
	inner := b.Choice("route", b.Activity("x", "X"), b.Activity("y", "Y"))
	outer := b.Parallel(b.Seq(b.Activity("a", "A"), inner), b.Activity("z", "Z"))
	s, err := b.Build(outer)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	info, err := Analyze(s)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if len(info.Blocks()) != 2 {
		t.Fatalf("want 2 blocks, got %d", len(info.Blocks()))
	}
	// Blocks are innermost-first.
	if info.Blocks()[0].Kind != model.NodeXORSplit || info.Blocks()[1].Kind != model.NodeANDSplit {
		t.Fatalf("block order wrong: %s then %s", info.Blocks()[0].Kind, info.Blocks()[1].Kind)
	}
	xor := info.Blocks()[0]
	path := info.Path("x")
	if len(path) == 0 || path[len(path)-1].Block != xor {
		t.Fatal("innermost block of x must be the XOR block")
	}
	if len(path) != 2 || path[0].Block.Kind != model.NodeANDSplit || path[1].Block.Kind != model.NodeXORSplit {
		t.Fatalf("path of x wrong: %+v", path)
	}
	// x and y diverge at the XOR block; x and z at the AND block.
	if blk, _, _, ok := info.Divergence("x", "y"); !ok || blk.Kind != model.NodeXORSplit {
		t.Fatal("x/y must diverge at the XOR block")
	}
	if blk, _, _, ok := info.Divergence("x", "z"); !ok || blk.Kind != model.NodeANDSplit {
		t.Fatal("x/z must diverge at the AND block")
	}
}

func TestAnalyzeLoopBlock(t *testing.T) {
	b := model.NewBuilder("loop")
	b.DataElement("again", model.TypeBool)
	loop := b.Loop(b.Seq(b.Activity("w", "W"), b.Activity("v", "V")), "again", 3)
	s, err := b.Build(b.Seq(b.Activity("pre", "Pre"), loop, b.Activity("post", "Post")))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	info, err := Analyze(s)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if len(info.Blocks()) != 1 {
		t.Fatalf("want 1 loop block, got %d", len(info.Blocks()))
	}
	lb := info.Blocks()[0]
	if lb.Kind != model.NodeLoopStart || !in(info, lb.Inside, "w") || !in(info, lb.Inside, "v") || in(info, lb.Inside, "pre") || in(info, lb.Inside, "post") {
		t.Fatalf("loop body wrong: %v", lb.Inside)
	}
	if blk, ok := info.ByJoin(lb.Join); !ok || blk != lb {
		t.Fatal("ByJoin lookup failed")
	}
	if k := slices.IndexFunc(info.Blocks(), func(b *Block) bool { return b.Split == lb.Split }); k < 0 || info.Blocks()[k] != lb {
		t.Fatal("lookup by split failed")
	}
}

func TestAnalyzeRejectsDefects(t *testing.T) {
	mk := func(mutate func(t *testing.T, s *model.Schema)) *model.Schema {
		s := buildParallel(t)
		mutate(t, s)
		return s
	}
	add := func(t *testing.T, s *model.Schema, e *model.Edge) {
		t.Helper()
		if err := s.AddEdge(e); err != nil {
			t.Fatalf("add edge: %v", err)
		}
	}
	cases := []struct {
		name string
		s    *model.Schema
		want string
	}{
		{
			name: "crossing edge between branches",
			s: mk(func(t *testing.T, s *model.Schema) {
				add(t, s, &model.Edge{From: "a1", To: "b2", Type: model.EdgeControl})
			}),
			want: "", // several messages possible; any error is fine
		},
		{
			name: "orphan join",
			s: func() *model.Schema {
				b := model.NewBuilder("orphan")
				frag := b.Seq(b.Activity("a", "A"), b.Activity("c", "C"))
				s, err := b.Build(frag)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				if err := s.AddNode(&model.Node{ID: "j", Type: model.NodeANDJoin, Auto: true}); err != nil {
					t.Fatal(err)
				}
				if err := s.RemoveEdge(model.EdgeKey{From: "a", To: "c", Type: model.EdgeControl}); err != nil {
					t.Fatal(err)
				}
				add(t, s, &model.Edge{From: "a", To: "j", Type: model.EdgeControl})
				add(t, s, &model.Edge{From: "j", To: "c", Type: model.EdgeControl})
				return s
			}(),
			want: "no matching split",
		},
		{
			name: "single-branch split",
			s: func() *model.Schema {
				b := model.NewBuilder("single")
				frag := b.Seq(b.Activity("a", "A"), b.Activity("c", "C"))
				s, err := b.Build(frag)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				if err := s.AddNode(&model.Node{ID: "sp", Type: model.NodeANDSplit, Auto: true}); err != nil {
					t.Fatal(err)
				}
				if err := s.RemoveEdge(model.EdgeKey{From: "a", To: "c", Type: model.EdgeControl}); err != nil {
					t.Fatal(err)
				}
				add(t, s, &model.Edge{From: "a", To: "sp", Type: model.EdgeControl})
				add(t, s, &model.Edge{From: "sp", To: "c", Type: model.EdgeControl})
				return s
			}(),
			want: "need >=2",
		},
		{
			name: "duplicate xor codes",
			s: func() *model.Schema {
				b := model.NewBuilder("dupcode")
				frag := b.Choice("", b.Activity("x", "X"), b.Activity("y", "Y"))
				s, err := b.Build(frag)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				for _, e := range s.Edges() {
					if e.Type == model.EdgeControl && e.Code == 1 {
						e.Code = 0 // collide with the other branch
					}
				}
				return s
			}(),
			want: "duplicate selection code",
		},
	}
	for _, c := range cases {
		_, err := Analyze(c.s)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if c.want != "" && !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}

func TestAnalyzeRejectsBrokenLoops(t *testing.T) {
	// Loop edge from activity to activity.
	b := model.NewBuilder("badloop")
	frag := b.Seq(b.Activity("a", "A"), b.Activity("c", "C"))
	s, err := b.Build(frag)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := s.AddEdge(&model.Edge{From: "c", To: "a", Type: model.EdgeLoop}); err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(s); err == nil || !strings.Contains(err.Error(), "loop edge") {
		t.Fatalf("expected loop edge error, got %v", err)
	}

	// Loop start without loop edge.
	b2 := model.NewBuilder("noloopedge")
	b2.DataElement("again", model.TypeBool)
	loop := b2.Loop(b2.Activity("w", "W"), "again", 2)
	s2, err := b2.Build(loop)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	for _, e := range s2.Edges() {
		if e.Type == model.EdgeLoop {
			if err := s2.RemoveEdge(e.Key()); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if _, err := Analyze(s2); err == nil {
		t.Fatal("expected error for loop start without loop edge")
	}
}
