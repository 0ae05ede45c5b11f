package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"adept2/internal/model"
)

// genSchema builds a random block-structured schema directly with the
// builder (the graph package cannot import internal/sim, which would
// create an import cycle through verify).
func genSchema(rng *rand.Rand) *model.Schema {
	b := model.NewBuilder("prop")
	var n int
	var frag func(depth int) model.Fragment
	frag = func(depth int) model.Fragment {
		if depth <= 0 || rng.Float64() < 0.5 {
			n++
			return b.Activity(id("a", n), "A", model.WithRole("r"))
		}
		switch rng.Intn(3) {
		case 0:
			return b.Parallel(frag(depth-1), frag(depth-1))
		case 1:
			return b.Choice("", frag(depth-1), frag(depth-1))
		default:
			return b.Loop(frag(depth-1), "", 3)
		}
	}
	root := b.Seq(frag(3), frag(2))
	s, err := b.Build(root)
	if err != nil {
		panic(err)
	}
	return s
}

func id(prefix string, n int) string {
	const digits = "0123456789"
	out := []byte(prefix)
	if n == 0 {
		return prefix + "0"
	}
	var buf []byte
	for n > 0 {
		buf = append([]byte{digits[n%10]}, buf...)
		n /= 10
	}
	return string(append(out, buf...))
}

// TestTopoOrderProperty: every control edge respects the topological
// order, and the order covers all nodes exactly once.
func TestTopoOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := genSchema(rand.New(rand.NewSource(seed)))
		order, err := TopoOrder(s, Control)
		if err != nil {
			return false
		}
		pos := make(map[string]int, len(order))
		for i, n := range order {
			if _, dup := pos[n]; dup {
				return false
			}
			pos[n] = i
		}
		if len(pos) != len(s.NodeIDs()) {
			return false
		}
		for _, e := range s.Edges() {
			if e.Type == model.EdgeControl && pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzeProperty: builder-generated schemas always analyze; every
// split has a matching join of the right type; branches partition the
// inside; blocks nest properly (checked by Analyze itself).
func TestAnalyzeProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := genSchema(rand.New(rand.NewSource(seed)))
		info, err := Analyze(s)
		if err != nil {
			return false
		}
		for _, blk := range info.Blocks() {
			split, _ := s.Node(blk.Split)
			join, _ := s.Node(blk.Join)
			want, ok := split.Type.MatchingJoin()
			if !ok || join.Type != want {
				return false
			}
			// Branch union equals Inside and branches are disjoint.
			seen := make(map[int]int)
			for _, br := range blk.Branches {
				for n := br.Next(0); n >= 0; n = br.Next(n + 1) {
					seen[n]++
				}
			}
			if len(seen) != blk.Inside.Count() {
				return false
			}
			for n, c := range seen {
				if c != 1 || !blk.Inside.Has(n) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDivergenceSymmetry: Divergence(a,b) agrees with Divergence(b,a) on
// the block, and diverging nodes are never control-ordered.
func TestDivergenceSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := genSchema(rng)
		info, err := Analyze(s)
		if err != nil {
			return false
		}
		ids := s.NodeIDs()
		for k := 0; k < 20; k++ {
			a := ids[rng.Intn(len(ids))]
			b := ids[rng.Intn(len(ids))]
			blkAB, brA, brB, okAB := info.Divergence(a, b)
			blkBA, brB2, brA2, okBA := info.Divergence(b, a)
			if okAB != okBA {
				return false
			}
			if okAB {
				if blkAB != blkBA || brA != brA2 || brB != brB2 {
					return false
				}
				// Diverging nodes cannot be ordered by control flow.
				if HasPath(s, a, b, Control) || HasPath(s, b, a, Control) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
