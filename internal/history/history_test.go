package history

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"adept2/internal/bitset"
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
	l := &Log{}
	e1 := l.Append(&Event{Kind: Started, Node: "a"})
	e2 := l.Append(&Event{Kind: Completed, Node: "a"})
	if e1.Seq != 1 || e2.Seq != 2 || l.Len() != 2 {
		t.Fatalf("seq assignment broken: %d %d len=%d", e1.Seq, e2.Seq, l.Len())
	}
}

func TestLogCloneIsDeep(t *testing.T) {
	l := &Log{}
	l.Append(&Event{Kind: Completed, Node: "a", Values: data.Values{{Name: "d", Value: int64(1)}}})
	c := l.Clone()
	ev := c.Events().Decode(nil)[0]
	ev.Values = ev.Values.With("d", int64(99)) // "d" is bound: With writes over it in place
	if v, _ := l.Events().Decode(nil)[0].Writes().Get("d"); v != int64(1) {
		t.Fatal("clone shares write sets")
	}
	c.Append(&Event{Kind: Started, Node: "b"})
	if l.Len() != 1 {
		t.Fatal("clone append leaked")
	}
}

func TestLogJSONRoundTrip(t *testing.T) {
	l := &Log{}
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
	if back.Len() != 2 {
		t.Fatalf("round trip: len=%d", back.Len())
	}
	if back.Events().Decode(nil)[1].Decision != 2 {
		t.Fatal("decision lost")
	}
	if err := json.Unmarshal([]byte("{"), &back); err == nil {
		t.Fatal("expected error for bad JSON")
	}
}

func TestReduceDropsSupersededIterations(t *testing.T) {
	_, info, ls, le := loopSchema(t)
	l := &Log{}
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

	red := ReduceInto(info, l.Events(), nil)
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
	l := &Log{}
	l.Append(&Event{Kind: Started, Node: "pre"})
	l.Append(&Event{Kind: Completed, Node: "pre"})
	red := ReduceInto(info, l.Events(), nil)
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
				region, topo := blk.Region(), info.Topology()
				kept := out[:0]
				for _, prev := range out {
					if n, ok := topo.Idx(prev.Node); !ok || !region.Has(int(n)) {
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

// TestReduceBackwardMatchesForward: the backward single-pass reduction,
// run in place over a decoded log, is stream-for-stream identical to the
// forward purge-on-Again formulation, on randomized event streams over a
// schema with nested loops (including streams that are not valid
// executions — both formulations only inspect Kind/Again/Node). The
// generator also emits Failed and Timeout events, pinning the attempt-purge
// bookkeeping of both passes against each other. The two sides decode the
// log separately, so events are compared by sequence number; and the
// purged events stay in the buffer behind the result, each exactly once,
// which is what lets the next call decode into them.
func TestReduceBackwardMatchesForward(t *testing.T) {
	_, info, ids := nestedLoopSchema(t)
	if info.Topology() == nil {
		t.Fatal("analysis must capture the topology snapshot")
	}
	var buf []*Event
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := &Log{}
		for i, n := 0, rng.Intn(80); i < n; i++ {
			e := Event{Node: ids[rng.Intn(len(ids))], Decision: -1}
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
			l.Append(&e)
		}
		buf = ReduceInto(info, l.Events(), buf)
		got := buf
		want := reduceForward(info, l.Events().Decode(nil), nil)
		if len(got) != len(want) {
			t.Fatalf("seed %d: backward %d events, forward %d", seed, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) { // by value: the two sides decoded the log separately
				t.Fatalf("seed %d: event %d differs: %v vs %v", seed, i, got[i], want[i])
			}
		}
		seen := make(map[int32]bool)
		for _, e := range got[:l.Len()] {
			if e == nil || seen[e.Seq] {
				t.Fatalf("seed %d: the buffer behind the result does not hold every event once: %v", seed, got[:l.Len()])
			}
			seen[e.Seq] = true
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
	l := &Log{}
	l.Append(&Event{Kind: Started, Node: "pre"})
	l.Append(&Event{Kind: Timeout, Node: "pre", Reason: "deadline expired"})
	l.Append(&Event{Kind: Failed, Node: "pre", Reason: "attempt 1"})
	l.Append(&Event{Kind: Started, Node: "pre"})
	l.Append(&Event{Kind: Failed, Node: "pre", Reason: "attempt 2"})
	l.Append(&Event{Kind: Started, Node: "pre"})
	l.Append(&Event{Kind: Completed, Node: "pre"})

	red := ReduceInto(info, l.Events(), nil)
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
// it has capacity, and in the events a previous result left there.
func TestReduceIntoReusesBuffer(t *testing.T) {
	_, info, _, _ := loopSchema(t)
	l := &Log{}
	l.Append(&Event{Kind: Started, Node: "pre"})
	l.Append(&Event{Kind: Completed, Node: "pre"})
	buf := make([]*Event, 0, 32)
	out := ReduceInto(info, l.Events(), buf)
	if len(out) != 2 || cap(out) != cap(buf) || &out[0] != &buf[:1][0] {
		t.Fatalf("buffer not reused: len=%d cap=%d", len(out), cap(out))
	}
	if out[0].Seq != 1 || out[1].Seq != 2 || out[1].Kind != Completed || out[1].Node != "pre" {
		t.Fatalf("wrong events: %v", out)
	}
	first, second := out[0], out[1]
	l.Append(&Event{Kind: Started, Node: "post"})
	again := ReduceInto(info, l.Events(), out)
	if len(again) != 3 || again[0] != first || again[1] != second || &again[0] != &buf[:1][0] {
		t.Fatalf("second pass did not decode into the first's events: %v", again)
	}
}

// TestStatsRebind: records survive a rebind to a mutated topology, which
// an index is bound to before it records the node the mutation added.
func TestStatsRebind(t *testing.T) {
	s, _, _, _ := loopSchema(t)
	st := newStatsFor(s.Topology())
	st.OnStart("pre", 1)
	st.OnComplete("pre", 2, -1)
	if start, _ := seqsOf(t, st, s.Topology(), "pre"); start != 1 {
		t.Fatal("records lost before rebind")
	}

	// Mutate the schema (adds a node, invalidates the topology cache).
	if err := s.AddNode(&model.Node{ID: "ghost", Type: model.NodeActivity}); err != nil {
		t.Fatal(err)
	}
	topo2 := s.Topology()
	st.Rebind(topo2)
	if start, complete := seqsOf(t, st, topo2, "pre"); start != 1 || complete != 2 {
		t.Fatal("dense record lost across rebind")
	}
	st.OnStart("ghost", 3) // the index is bound to the topology that has it
	if start, _ := seqsOf(t, st, topo2, "ghost"); start != 3 {
		t.Fatal("record of the added node not kept")
	}
	st.Rebind(topo2) // same-topology rebind is a no-op
	if start, _ := seqsOf(t, st, topo2, "pre"); start != 1 {
		t.Fatal("no-op rebind corrupted records")
	}
	if n := len(st.Export()); n != 2 {
		t.Fatalf("%d live records, want 2", n)
	}
}

func TestStatsLifecycle(t *testing.T) {
	other := model.NewSchema("o", "t", 1)
	for _, id := range []string{"a", "split", "idle"} {
		if err := other.AddNode(&model.Node{ID: id, Name: id, Type: model.NodeActivity}); err != nil {
			t.Fatal(err)
		}
	}
	topo := other.Topology()
	at := func(id string) model.NodeIdx { i, _ := topo.Idx(id); return i }
	s := newStatsFor(topo)
	s.OnStart("a", 3)
	if !s.StartedAt(topo, at("a")) || s.StartSeqAt(topo, at("a")) != 3 || s.CompleteSeqAt(topo, at("a")) != 0 {
		t.Fatal("start bookkeeping")
	}
	s.OnComplete("a", 4, -1)
	if s.CompleteSeqAt(topo, at("a")) != 4 {
		t.Fatal("complete bookkeeping")
	}
	s.OnComplete("split", 6, 1) // completion without recorded start
	if d := s.DecisionAt(topo, at("split")); d != 1 {
		t.Fatalf("decision of split = %d, want 1", d)
	}
	if s.DecisionAt(topo, at("a")) != 0 || s.DecisionAt(topo, at("idle")) != 0 {
		t.Fatal("a node without a decision must read 0")
	}
	region := bitset.New(topo.NumNodes())
	region.Set(int(at("a")))
	s.PurgeRegion(topo, region)
	if s.StartedAt(topo, at("a")) {
		t.Fatal("purge failed")
	}
	if s.StartedAt(topo, at("idle")) || s.StartSeqAt(topo, at("idle")) != 0 || s.CompleteSeqAt(topo, at("idle")) != 0 {
		t.Fatal("zero stats for nodes that never ran")
	}
	s.OnFail("split")
	if s.CompleteSeqAt(topo, at("split")) != 0 || len(s.Export()) != 0 {
		t.Fatalf("a failure leaves a record: %+v", s.Export())
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
	st := newStatsFor(s.Topology())
	st.OnStart("a", 1)
	st.OnComplete("a", 2, 3)

	// A record of a node the topology lacks is skipped.
	ex := append(st.Export(), StatExport{ID: "ghost", StartSeq: 4, Decision: -1})
	aIdx, _ := s.Topology().Idx("a")
	re := &Stats{}
	re.Import(s.Topology(), ex)
	if !re.StartedAt(s.Topology(), aIdx) || re.CompleteSeqAt(s.Topology(), aIdx) != 2 || re.DecisionAt(s.Topology(), aIdx) != 3 {
		t.Fatalf("dense record lost: %+v", ex)
	}
	if got := re.Export(); !reflect.DeepEqual(got, ex[:1]) {
		t.Fatalf("re-export %+v, want %+v", got, ex[:1])
	}
}

// TestStatsReadsOnlyItsBoundTopology: every read names the topology it
// interned its node in, and one the index is not bound to — a foreign one
// with the same node IDs, or any topology for an unbound index — panics
// instead of being answered; a record of a node outside the bound
// topology panics the same way.
func TestStatsReadsOnlyItsBoundTopology(t *testing.T) {
	mk := func(name string) *model.Topology {
		s := model.NewSchema(name, "t", 1)
		for _, n := range []*model.Node{
			{ID: "start", Name: "s", Type: model.NodeStart, Auto: true},
			{ID: "a", Name: "a", Type: model.NodeActivity},
			{ID: "end", Name: "e", Type: model.NodeEnd, Auto: true},
		} {
			if err := s.AddNode(n); err != nil {
				t.Fatal(err)
			}
		}
		return s.Topology()
	}
	topo, other := mk("s"), mk("o")
	st := newStatsFor(topo)
	st.OnStart("a", 1)
	st.OnComplete("a", 2, -1)
	ai, _ := topo.Idx("a")
	if !st.StartedAt(topo, ai) || st.StartSeqAt(topo, ai) != 1 || st.CompleteSeqAt(topo, ai) != 2 {
		t.Fatal("the bound topology's reads")
	}
	oi, _ := other.Idx("a")
	panics := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	for _, s := range []*Stats{st, {}} {
		panics("StartedAt", func() { s.StartedAt(other, oi) })
		panics("StartSeqAt", func() { s.StartSeqAt(other, oi) })
		panics("CompleteSeqAt", func() { s.CompleteSeqAt(other, oi) })
		panics("DecisionAt", func() { s.DecisionAt(other, oi) })
		panics("PurgeRegion", func() { s.PurgeRegion(other, bitset.New(other.NumNodes())) })
	}
	panics("OnStart of a node the topology lacks", func() { st.OnStart("ghost", 3) })
	panics("OnStart on an unbound index", func() { (&Stats{}).OnStart("a", 3) })
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
		pooled, plain := newStatsFor(a.Topology()), newStatsFor(a.Topology())
		pooled.OnStart("x", 1)
		plain.OnStart("x", 1)
		pooled.RebindPooled(b.Topology(), sc)
		plain.Rebind(b.Topology())
		if !reflect.DeepEqual(pooled.Export(), plain.Export()) || len(plain.Export()) != 1 {
			t.Fatalf("iter %d: pooled rebind diverged", iter)
		}
	}
}

// TestSymbolsConcurrent: goroutines that append to logs of one table —
// each interning strings the others have and strings only it has — while
// they decode their own logs read back exactly what they appended, and a
// Lookup of a name answers that name or nothing. Run under the race
// detector this is the check that a decoder and a lookup need no lock:
// the names slice and the map they loaded are never written where they
// read.
func TestSymbolsConcurrent(t *testing.T) {
	syms := NewSymbols()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := syms.NewLog()
			var want []string
			var e Event
			for i := 0; i < 300; i++ {
				node := fmt.Sprintf("shared-%d", i%40)
				if i%3 == 0 {
					node = fmt.Sprintf("own-%d-%d", g, i)
				}
				want = append(want, node)
				l.Append(&Event{Kind: Started, Node: node, User: fmt.Sprintf("user-%d", i%7), Decision: -1})
				if held, ok := syms.Lookup([]byte(node)); ok && held != node {
					t.Errorf("goroutine %d: Lookup(%q) = %q", g, node, held)
					return
				}
				if i%25 != 0 {
					continue
				}
				k := 0
				for c := l.Events(); c.Next(&e); k++ {
					if e.Node != want[k] || e.User != fmt.Sprintf("user-%d", k%7) {
						t.Errorf("goroutine %d: event %d decodes to %q by %q, appended %q", g, k, e.Node, e.User, want[k])
						return
					}
				}
				if k != len(want) {
					t.Errorf("goroutine %d: decoded %d events, appended %d", g, k, len(want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// newStatsFor returns an empty index bound to topo.
func newStatsFor(topo *model.Topology) *Stats {
	s := &Stats{}
	s.Reset(topo)
	return s
}

// seqsOf returns the start and completion sequences the index records for
// a node of topo.
func seqsOf(t *testing.T, st *Stats, topo *model.Topology, id string) (start, complete int) {
	t.Helper()
	i, ok := topo.Idx(id)
	if !ok {
		t.Fatalf("no node %q", id)
	}
	return st.StartSeqAt(topo, i), st.CompleteSeqAt(topo, i)
}
