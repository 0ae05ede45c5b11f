package state

import (
	"reflect"
	"testing"
	"unsafe"

	"adept2/internal/bitset"
	"adept2/internal/model"
)

// span is the byte range one array occupies.
type span struct{ from, to uintptr }

func spanOf[T any](s []T) span {
	if len(s) == 0 {
		return span{}
	}
	from := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return span{from, from + uintptr(len(s))*unsafe.Sizeof(s[0])}
}

func (a span) overlaps(b span) bool { return a.from < b.to && b.from < a.to }

// spans returns the byte ranges of the three arrays, in layOut's order.
func (a *arrays) spans() [3]span {
	return [3]span{spanOf(a.pendingSet), spanOf(a.nodes), spanOf(a.edges)}
}

// TestLayOutSeparatesTheArrays: for every node and edge count up to 130,
// the three arrays layOut carves have their lengths with cap == len, lie
// inside the block without overlapping, and writing every element of one
// leaves every other byte of the block zero.
func TestLayOutSeparatesTheArrays(t *testing.T) {
	for n := 0; n <= 130; n++ {
		for e := 0; e <= 130; e++ {
			block := make([]uint64, blockWords(n, e))
			a := layOut(block, n, e)
			if len(a.pendingSet) != bitset.Words(n) || len(a.nodes) != n || len(a.edges) != e {
				t.Fatalf("n=%d e=%d: lengths %d %d %d", n, e, len(a.pendingSet), len(a.nodes), len(a.edges))
			}
			if cap(a.pendingSet) != len(a.pendingSet) || cap(a.nodes) != n || cap(a.edges) != e {
				t.Fatalf("n=%d e=%d: an array has room past its length", n, e)
			}
			whole := spanOf(block)
			sp := a.spans()
			for i, s := range sp {
				if s != (span{}) && (s.from < whole.from || s.to > whole.to) {
					t.Fatalf("n=%d e=%d: array %d lies outside the block", n, e, i)
				}
				for j := i + 1; j < len(sp); j++ {
					if s.overlaps(sp[j]) {
						t.Fatalf("n=%d e=%d: arrays %d and %d overlap", n, e, i, j)
					}
				}
			}
			fills := [3]func(){
				func() {
					for i := range a.pendingSet {
						a.pendingSet[i] = ^uint64(0)
					}
				},
				func() {
					for i := range a.nodes {
						a.nodes[i] = 0xff
					}
				},
				func() {
					for i := range a.edges {
						a.edges[i] = 0xff
					}
				},
			}
			bytes := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(block))), 8*len(block))
			for i, fill := range fills {
				fill()
				for b, v := range bytes {
					if at := whole.from + uintptr(b); v != 0 && (at < sp[i].from || at >= sp[i].to) {
						t.Fatalf("n=%d e=%d: filling array %d wrote byte %d of the block, outside it", n, e, i, b)
					}
				}
				clear(block)
			}
		}
	}
}

// TestDerivedMarkingsShareNoBlock: Clone, a remap, RebindTo (with and
// without a scratch) and Import each give the marking they return a block
// that shares no byte with its source's, and carry the state over.
func TestDerivedMarkingsShareNoBlock(t *testing.T) {
	src, dst := chainSchema(t, "src"), chainSchema(t, "dst")
	if err := dst.AddNode(&model.Node{ID: "c", Name: "c", Type: model.NodeActivity, Role: "r"}); err != nil {
		t.Fatal(err)
	}
	fresh := func() *Marking {
		m := NewMarking(src)
		m.Init(src)
		Evaluate(src, m)
		run(t, src, m, "a", -1)
		m.SetNode("a", NotActivated) // leaves a pending entry to carry over
		return m
	}
	disjoint := func(what string, a, b *Marking) {
		t.Helper()
		for i, sa := range a.arrays.spans() {
			for j, sb := range b.arrays.spans() {
				if sa.overlaps(sb) {
					t.Errorf("%s: array %d shares bytes with its source's array %d", what, i, j)
				}
			}
		}
	}
	sameState := func(what string, want, got *Marking) {
		t.Helper()
		if w, g := want.Export(boundStats(want.topo)), got.Export(boundStats(got.topo)); !reflect.DeepEqual(w, g) {
			t.Errorf("%s: state %+v, want %+v", what, g, w)
		}
	}

	m := fresh()
	c := m.Clone()
	disjoint("Clone", c, m)
	sameState("Clone", m, c)

	for _, how := range []string{"remap", "RebindTo nil", "RebindTo scratch"} {
		m := fresh()
		before := &Marking{topo: m.topo, arrays: m.arrays}
		want := m.Clone()
		sc := &RemapScratch{}
		switch how {
		case "remap":
			m.remap(dst.Topology())
		case "RebindTo nil":
			m.RebindTo(dst.Topology(), nil)
		default:
			m.RebindTo(dst.Topology(), sc)
			other := fresh()
			other.RebindTo(dst.Topology(), sc)
			disjoint("RebindTo scratch, two markings", other, m)
		}
		disjoint(how, m, before)
		sameState(how, want, m)
	}

	m = fresh()
	imported := NewMarking(src) // bound to the same topology: Import keeps its block
	if err := imported.Import(src, m.Export(boundStats(src.Topology()))); err != nil {
		t.Fatal(err)
	}
	disjoint("Import", imported, m)
	sameState("Import", m, imported)
}
