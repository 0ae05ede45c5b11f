package state

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adept2/internal/history"
	"adept2/internal/model"
)

// genRun builds a random schema and a random partial execution of it,
// returning the view, the marking and the execution index.
func genRun(rng *rand.Rand) (model.SchemaView, *Marking, *history.Stats) {
	b := model.NewBuilder("p")
	var n int
	var frag func(depth int) model.Fragment
	frag = func(depth int) model.Fragment {
		if depth <= 0 || rng.Float64() < 0.55 {
			n++
			return b.Activity(actID(n), "A", model.WithRole("r"))
		}
		if rng.Intn(2) == 0 {
			return b.Parallel(frag(depth-1), frag(depth-1))
		}
		return b.Choice("", frag(depth-1), frag(depth-1))
	}
	s, err := b.Build(b.Seq(frag(3)))
	if err != nil {
		panic(err)
	}
	m := NewMarking(s)
	m.Init(s)
	Evaluate(s, m)
	stats := &history.Stats{}
	stats.Reset(s.Topology())
	// Random partial run: repeatedly pick an activated node and complete
	// it (choosing random XOR branches).
	for step := 0; step < 30; step++ {
		enabled := m.NodesInState(Activated)
		if len(enabled) == 0 {
			break
		}
		id := enabled[rng.Intn(len(enabled))]
		if m.Start(id) != nil {
			break
		}
		stats.OnStart(id, 2*step+1)
		node, _ := s.Node(id)
		dec := -1
		if node.Type == model.NodeXORSplit {
			outs := model.OutControlEdges(s, id)
			dec = outs[rng.Intn(len(outs))].Code
		}
		if m.Complete(s, id, dec) != nil {
			break
		}
		stats.OnComplete(id, 2*step+2, dec)
		Evaluate(s, m)
	}
	return s, m, stats
}

func actID(n int) string {
	digits := []byte("0123456789")
	out := []byte{'a'}
	if n == 0 {
		return "a0"
	}
	var buf []byte
	for n > 0 {
		buf = append([]byte{digits[n%10]}, buf...)
		n /= 10
	}
	return string(append(out, buf...))
}

// TestEvaluateIdempotent: a second Evaluate pass never changes anything
// (the rules reach a true fixpoint).
func TestEvaluateIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		v, m, _ := genRun(rand.New(rand.NewSource(seed)))
		before := m.Clone()
		Evaluate(v, m)
		return markingsEqual(v, before, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptIsIdentityWithoutChange: adapting a marking against its own
// unchanged schema reproduces the marking exactly.
func TestAdaptIsIdentityWithoutChange(t *testing.T) {
	f := func(seed int64) bool {
		v, m, stats := genRun(rand.New(rand.NewSource(seed)))
		before := m.Clone()
		Adapt(v, m, stats)
		return markingsEqual(v, before, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestMarkingInvariants: structural sanity of every reachable marking —
// an activated or started node has no false-signaled incoming control
// edge; a skipped node never has started successors on dead edges that
// carry true signals, and exactly one outgoing control edge of a
// completed XOR split is true-signaled.
func TestMarkingInvariants(t *testing.T) {
	f := func(seed int64) bool {
		v, m, _ := genRun(rand.New(rand.NewSource(seed)))
		for _, id := range v.NodeIDs() {
			n, _ := v.Node(id)
			st := m.Node(id)
			if st == Activated || st == Running || st == Completed {
				if n.Type != model.NodeXORJoin && n.Type != model.NodeStart {
					for _, e := range model.InControlEdges(v, id) {
						if m.Edge(e.Key()) == FalseSignaled {
							return false
						}
					}
				}
			}
			if n.Type == model.NodeXORSplit && st == Completed {
				trueCnt := 0
				for _, e := range model.OutControlEdges(v, id) {
					if m.Edge(e.Key()) == TrueSignaled {
						trueCnt++
					}
				}
				if trueCnt != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func markingsEqual(v model.SchemaView, a, b *Marking) bool {
	for _, id := range v.NodeIDs() {
		if a.Node(id) != b.Node(id) {
			return false
		}
	}
	for _, e := range v.Edges() {
		if a.Edge(e.Key()) != b.Edge(e.Key()) {
			return false
		}
	}
	return true
}
