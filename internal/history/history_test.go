package history

import (
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"adept2/internal/data"
	"adept2/internal/graph"
	"adept2/internal/model"
)

func loopSchema(t *testing.T) (*model.Schema, *graph.Info, string, string) {
	t.Helper()
	b := model.NewBuilder("loop")
	loop := b.Loop(b.Seq(b.Activity("w", "W"), b.Activity("v", "V")), "", 0)
	s, err := b.Build(b.Seq(b.Activity("pre", "Pre"), loop, b.Activity("post", "Post")))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	info, err := graph.Analyze(s)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	var ls, le string
	for _, n := range s.Nodes() {
		switch n.Type {
		case model.NodeLoopStart:
			ls = n.ID
		case model.NodeLoopEnd:
			le = n.ID
		}
	}
	return s, info, ls, le
}

func TestLogAppendAssignsDenseSeq(t *testing.T) {
	l := NewLog()
	e1 := l.Append(&Event{Kind: Started, Node: "a"})
	e2 := l.Append(&Event{Kind: Completed, Node: "a"})
	if e1.Seq != 1 || e2.Seq != 2 || l.Len() != 2 || l.NextSeq() != 3 {
		t.Fatalf("seq assignment broken: %d %d len=%d next=%d", e1.Seq, e2.Seq, l.Len(), l.NextSeq())
	}
}

func TestLogCloneIsDeep(t *testing.T) {
	l := NewLog()
	l.Append(&Event{Kind: Completed, Node: "a", Values: data.Values{{Name: "d", Value: int64(1)}}})
	c := l.Clone()
	c.Events()[0].Values.Set("d", int64(99))
	if v, _ := l.Events()[0].Writes().Get("d"); v != int64(1) {
		t.Fatal("clone shares write sets")
	}
	c.Append(&Event{Kind: Started, Node: "b"})
	if l.Len() != 1 {
		t.Fatal("clone append leaked")
	}
}

func TestLogJSONRoundTrip(t *testing.T) {
	l := NewLog()
	l.Append(&Event{Kind: Started, Node: "a", User: "u1", Values: data.Values{{Name: "p", Value: "v"}}})
	l.Append(&Event{Kind: Completed, Node: "a", Decision: 2})
	blob, err := json.Marshal(l)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Log
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Len() != 2 || back.NextSeq() != 3 {
		t.Fatalf("round trip: len=%d next=%d", back.Len(), back.NextSeq())
	}
	if back.Events()[1].Decision != 2 {
		t.Fatal("decision lost")
	}
	if err := json.Unmarshal([]byte("{"), &back); err == nil {
		t.Fatal("expected error for bad JSON")
	}
}

func TestReduceDropsSupersededIterations(t *testing.T) {
	_, info, ls, le := loopSchema(t)
	l := NewLog()
	// pre, then two iterations of (ls, w, v, le-again), then final
	// iteration completing.
	l.Append(&Event{Kind: Started, Node: "pre"})
	l.Append(&Event{Kind: Completed, Node: "pre"})
	for i := 0; i < 2; i++ {
		l.Append(&Event{Kind: Started, Node: ls})
		l.Append(&Event{Kind: Completed, Node: ls})
		l.Append(&Event{Kind: Started, Node: "w"})
		l.Append(&Event{Kind: Completed, Node: "w"})
		l.Append(&Event{Kind: Started, Node: "v"})
		l.Append(&Event{Kind: Completed, Node: "v"})
		l.Append(&Event{Kind: Started, Node: le})
		l.Append(&Event{Kind: Completed, Node: le, Again: true})
	}
	l.Append(&Event{Kind: Started, Node: ls})
	l.Append(&Event{Kind: Completed, Node: ls})
	l.Append(&Event{Kind: Started, Node: "w"})
	l.Append(&Event{Kind: Completed, Node: "w"})

	red := Reduce(info, l.Events())
	// Expected: pre(2) + final iteration so far (ls started/completed, w
	// started/completed) = 6 events.
	if len(red) != 6 {
		t.Fatalf("reduced length = %d, want 6: %v", len(red), red)
	}
	for _, e := range red {
		if e.Again {
			t.Fatalf("iterating completion survived reduction: %v", e)
		}
	}
	if red[0].Node != "pre" || red[2].Node != ls || red[4].Node != "w" {
		t.Fatalf("unexpected order: %v", red)
	}
}

func TestReduceKeepsNonLoopHistory(t *testing.T) {
	_, info, _, _ := loopSchema(t)
	l := NewLog()
	l.Append(&Event{Kind: Started, Node: "pre"})
	l.Append(&Event{Kind: Completed, Node: "pre"})
	red := Reduce(info, l.Events())
	if len(red) != 2 {
		t.Fatalf("reduce must keep all non-loop events, got %d", len(red))
	}
}

// nestedLoopSchema: pre -> outer loop( w -> inner loop(x) -> v ) -> post.
func nestedLoopSchema(t *testing.T) (*model.Schema, *graph.Info, []string) {
	t.Helper()
	b := model.NewBuilder("nested")
	inner := b.Loop(b.Activity("x", "X"), "", 0)
	outer := b.Loop(b.Seq(b.Activity("w", "W"), inner, b.Activity("v", "V")), "", 0)
	s, err := b.Build(b.Seq(b.Activity("pre", "Pre"), outer, b.Activity("post", "Post")))
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	info, err := graph.Analyze(s)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return s, info, s.NodeIDs()
}

// reduceForward is the historical forward formulation: purge the retained
// slice whenever a loop end iterates. It is the reference the differential
// test below pins ReduceInto's backward pass against.
func reduceForward(info *graph.Info, events []*Event, buf []*Event) []*Event {
	out := buf[:0]
	for _, e := range events {
		switch e.Kind {
		case Timeout:
			continue // audit marker: never part of the logical history
		case Failed:
			// Purge the failed attempt: drop the youngest retained
			// Started of the node together with the Failed event itself.
			for k := len(out) - 1; k >= 0; k-- {
				if out[k].Node == e.Node && out[k].Kind == Started {
					out = append(out[:k], out[k+1:]...)
					break
				}
			}
			continue
		}
		if e.Kind == Completed && e.Again {
			if blk, ok := info.ByJoin(e.Node); ok && blk.Kind == model.NodeLoopStart {
				region := blk.Region()
				kept := out[:0]
				for _, prev := range out {
					if !region[prev.Node] {
						kept = append(kept, prev)
					}
				}
				out = kept
				continue // the iterating completion itself is purged
			}
		}
		out = append(out, e)
	}
	return out
}

// TestReduceBackwardMatchesForward: the backward interned single-pass
// reduction is stream-for-stream identical to the forward purge-on-Again
// formulation, on randomized event streams over a schema with nested
// loops (including streams that are not valid executions — both
// formulations only inspect Kind/Again/Node). The generator also emits
// Failed and Timeout events, pinning the attempt-purge bookkeeping of
// both passes against each other.
func TestReduceBackwardMatchesForward(t *testing.T) {
	_, info, ids := nestedLoopSchema(t)
	if info.Topology() == nil {
		t.Fatal("analysis must capture the topology snapshot")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(80)
		events := make([]*Event, n)
		for i := range events {
			e := &Event{Seq: int32(i + 1), Node: ids[rng.Intn(len(ids))]}
			switch rng.Intn(6) {
			case 0, 1, 2:
				e.Kind = Completed
				e.Again = rng.Intn(3) == 0
			case 3:
				e.Kind = Failed
			case 4:
				e.Kind = Timeout
			default:
				e.Kind = Started
			}
			events[i] = e
		}
		got := ReduceInto(info, events, nil)
		want := reduceForward(info, events, nil)
		if len(got) != len(want) {
			t.Fatalf("seed %d: backward %d events, forward %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d differs: %v vs %v", seed, i, got[i], want[i])
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestReducePurgesFailedAttempts: a failed attempt leaves the logical
// history entirely — the Failed event drops together with its matching
// Started, Timeout markers always drop, and the successful retry's
// Started/Completed pair survives. This is what makes a failed-then-
// retried activity compliant with a schema that never saw the failure.
func TestReducePurgesFailedAttempts(t *testing.T) {
	_, info, _, _ := loopSchema(t)
	l := NewLog()
	l.Append(&Event{Kind: Started, Node: "pre"})
	l.Append(&Event{Kind: Timeout, Node: "pre", Reason: "deadline expired"})
	l.Append(&Event{Kind: Failed, Node: "pre", Reason: "attempt 1"})
	l.Append(&Event{Kind: Started, Node: "pre"})
	l.Append(&Event{Kind: Failed, Node: "pre", Reason: "attempt 2"})
	l.Append(&Event{Kind: Started, Node: "pre"})
	l.Append(&Event{Kind: Completed, Node: "pre"})

	red := Reduce(info, l.Events())
	if len(red) != 2 {
		t.Fatalf("reduced length = %d, want the surviving Started/Completed pair: %v", len(red), red)
	}
	if red[0].Kind != Started || red[1].Kind != Completed || red[0].Seq != 6 {
		t.Fatalf("wrong survivors: %v", red)
	}
	for _, e := range red {
		if e.Kind == Failed || e.Kind == Timeout {
			t.Fatalf("exception marker survived reduction: %v", e)
		}
	}
}

// TestReduceIntoReusesBuffer: the result lives in the caller's buffer when
// it has capacity.
func TestReduceIntoReusesBuffer(t *testing.T) {
	_, info, _, _ := loopSchema(t)
	events := []*Event{
		{Seq: 1, Kind: Started, Node: "pre"},
		{Seq: 2, Kind: Completed, Node: "pre"},
	}
	buf := make([]*Event, 0, 32)
	out := ReduceInto(info, events, buf)
	if len(out) != 2 || cap(out) != cap(buf) || &out[0] != &buf[:1][0] {
		t.Fatalf("buffer not reused: len=%d cap=%d", len(out), cap(out))
	}
}

// TestStatsRebind: dense records survive a rebind to a mutated topology,
// records of unknown nodes spill into the overflow and fold back in on the
// next rebind.
func TestStatsRebind(t *testing.T) {
	s, _, _, _ := loopSchema(t)
	st := NewStatsFor(s.Topology())
	st.OnStart("pre", 1)
	st.OnComplete("pre", 2, -1)
	st.OnStart("ghost", 3) // unknown to the topology: overflow-kept
	if !st.Started("pre") || !st.Started("ghost") {
		t.Fatal("records lost before rebind")
	}

	// Mutate the schema (adds a node, invalidates the topology cache).
	if err := s.AddNode(&model.Node{ID: "ghost", Type: model.NodeActivity}); err != nil {
		t.Fatal(err)
	}
	topo2 := s.Topology()
	st.Rebind(topo2)
	if st.StartSeq("pre") != 1 || st.CompleteSeq("pre") != 2 {
		t.Fatal("dense record lost across rebind")
	}
	if st.StartSeq("ghost") != 3 {
		t.Fatal("overflow record not folded into the new topology")
	}
	st.Rebind(topo2) // same-topology rebind is a no-op
	if st.StartSeq("pre") != 1 {
		t.Fatal("no-op rebind corrupted records")
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
}

func TestStatsLifecycle(t *testing.T) {
	s := NewStats()
	s.OnStart("a", 3)
	if !s.Started("a") || s.StartSeq("a") != 3 || s.CompleteSeq("a") != 0 {
		t.Fatal("start bookkeeping")
	}
	s.OnComplete("a", 4, -1)
	if s.CompleteSeq("a") != 4 {
		t.Fatal("complete bookkeeping")
	}
	s.OnComplete("split", 6, 1) // completion without recorded start
	d := s.Decisions()
	if d["split"] != 1 {
		t.Fatalf("decisions = %v", d)
	}
	if _, ok := d["a"]; ok {
		t.Fatal("non-split decision leaked")
	}
	c := s.Clone()
	c.OnStart("b", 9)
	if s.Started("b") {
		t.Fatal("clone leaked")
	}
	s.PurgeRegion(map[string]bool{"a": true})
	if s.Started("a") {
		t.Fatal("purge failed")
	}
	if s.Started("nope") || s.StartSeq("nope") != 0 || s.CompleteSeq("nope") != 0 {
		t.Fatal("zero stats for unknown nodes")
	}
}

func TestEventStringsAndKind(t *testing.T) {
	if (&Event{Seq: 1, Kind: Started, Node: "a"}).String() != "#1 started a" {
		t.Fatal("started string")
	}
	if (&Event{Seq: 2, Kind: Completed, Node: "s", Decision: 1}).String() != "#2 completed s (decision 1)" {
		t.Fatal("decision string")
	}
	if (&Event{Seq: 3, Kind: Completed, Node: "le", Again: true}).String() != "#3 completed le (again)" {
		t.Fatal("again string")
	}
	if (&Event{Seq: 4, Kind: Completed, Node: "a", Decision: -1}).String() != "#4 completed a" {
		t.Fatal("plain completed string")
	}
	if Started.String() != "started" || Completed.String() != "completed" {
		t.Fatal("kind strings")
	}
}

func TestStatsExportImportRoundTrip(t *testing.T) {
	s := model.NewSchema("s", "t", 1)
	for _, n := range []*model.Node{
		{ID: "start", Name: "start", Type: model.NodeStart, Auto: true},
		{ID: "a", Name: "a", Type: model.NodeActivity},
		{ID: "end", Name: "end", Type: model.NodeEnd, Auto: true},
	} {
		if err := s.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	st := NewStatsFor(s.Topology())
	st.OnStart("a", 1)
	st.OnComplete("a", 2, 3)
	st.OnStart("ghost", 4) // overflow record (node unknown to the topology)

	ex := st.Export()
	re := ImportStats(s.Topology(), ex)
	if !re.Started("a") || re.CompleteSeq("a") != 2 || re.Decisions()["a"] != 3 {
		t.Fatalf("dense record lost: %+v", ex)
	}
	if !re.Started("ghost") || re.StartSeq("ghost") != 4 {
		t.Fatalf("overflow record lost: %+v", ex)
	}
}

func TestStatsDenseAccessorsMatchStringPath(t *testing.T) {
	s := model.NewSchema("s", "t", 1)
	for _, n := range []*model.Node{
		{ID: "start", Name: "start", Type: model.NodeStart, Auto: true},
		{ID: "a", Name: "a", Type: model.NodeActivity},
		{ID: "end", Name: "end", Type: model.NodeEnd, Auto: true},
	} {
		if err := s.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	topo := s.Topology()
	st := NewStatsFor(topo)
	st.OnStart("a", 1)
	st.OnComplete("a", 2, -1)
	ai, _ := topo.Idx("a")
	if st.StartedAt(topo, ai) != st.Started("a") ||
		st.StartSeqAt(topo, ai) != st.StartSeq("a") ||
		st.CompleteSeqAt(topo, ai) != st.CompleteSeq("a") {
		t.Fatal("dense accessors diverge from string path")
	}
	// Foreign topology binding falls back to the string path.
	other := model.NewSchema("o", "t", 1)
	for _, n := range []*model.Node{
		{ID: "start", Name: "s", Type: model.NodeStart, Auto: true},
		{ID: "a", Name: "a", Type: model.NodeActivity},
		{ID: "end", Name: "e", Type: model.NodeEnd, Auto: true},
	} {
		if err := other.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	oi, _ := other.Topology().Idx("a")
	if !st.StartedAt(other.Topology(), oi) {
		t.Fatal("fallback path broken")
	}
}

func TestStatsRebindPooledMatchesRebind(t *testing.T) {
	mk := func() (*model.Schema, *model.Schema) {
		a := model.NewSchema("a", "t", 1)
		b := model.NewSchema("b", "t", 2)
		for _, s := range []*model.Schema{a, b} {
			for _, n := range []*model.Node{
				{ID: "start", Name: "s", Type: model.NodeStart, Auto: true},
				{ID: "x", Name: "x", Type: model.NodeActivity},
				{ID: "end", Name: "e", Type: model.NodeEnd, Auto: true},
			} {
				if err := s.AddNode(n); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := b.AddNode(&model.Node{ID: "y", Name: "y", Type: model.NodeActivity}); err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	a, b := mk()
	sc := &RebindScratch{}
	for iter := 0; iter < 3; iter++ {
		pooled := NewStatsFor(a.Topology())
		pooled.OnStart("x", 1)
		plain := pooled.Clone()
		pooled.RebindPooled(b.Topology(), sc)
		plain.Rebind(b.Topology())
		if pooled.StartSeq("x") != plain.StartSeq("x") || pooled.Len() != plain.Len() {
			t.Fatalf("iter %d: pooled rebind diverged", iter)
		}
	}
}

// TestEventSize pins the two per-instance records of this package to their
// allocator size classes: an Event fits 96 B (it was 120 B in the 128 B
// class, and the history is two thirds of an instance), a NodeStat is three
// 32-bit numbers. A field that pushes either over fails here with the
// layout, before it shows as heap_bytes_per_inst.
func TestEventSize(t *testing.T) {
	var e Event
	if got := unsafe.Sizeof(e); got > 96 {
		t.Errorf("Event is %d B, over the 96 B size class: Node@%d User@%d Reason@%d Values@%d At@%d Seq@%d Decision@%d idx@%d Kind@%d Again@%d",
			got, unsafe.Offsetof(e.Node), unsafe.Offsetof(e.User), unsafe.Offsetof(e.Reason), unsafe.Offsetof(e.Values),
			unsafe.Offsetof(e.At), unsafe.Offsetof(e.Seq), unsafe.Offsetof(e.Decision), unsafe.Offsetof(e.idx),
			unsafe.Offsetof(e.Kind), unsafe.Offsetof(e.Again))
	}
	var st NodeStat
	if got := unsafe.Sizeof(st); got > 12 {
		t.Errorf("NodeStat is %d B, over 12: StartSeq@%d CompleteSeq@%d Decision@%d",
			got, unsafe.Offsetof(st.StartSeq), unsafe.Offsetof(st.CompleteSeq), unsafe.Offsetof(st.Decision))
	}
	t.Logf("Event %d B, NodeStat %d B, data.Binding %d B", unsafe.Sizeof(e), unsafe.Sizeof(st), unsafe.Sizeof(data.Binding{}))
}
