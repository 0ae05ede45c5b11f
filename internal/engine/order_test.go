package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"adept2/internal/model"
)

// sscanfOrder is the comparator SortInstanceOrder ran before it parsed
// each ID once: fmt.Sscanf inside the comparison, twice per call. It is
// the reference the key-slice sort is held to.
func sscanfOrder(order []string) {
	num := func(id string) (int, bool) {
		var n int
		if _, err := fmt.Sscanf(id, "inst-%d", &n); err != nil {
			return 0, false
		}
		return n, true
	}
	sort.SliceStable(order, func(i, j int) bool {
		ni, oki := num(order[i])
		nj, okj := num(order[j])
		if oki && okj {
			return ni < nj
		}
		if oki != okj {
			return oki
		}
		return order[i] < order[j]
	})
}

// engineWithOrder registers one bare instance per ID, in the given order.
func engineWithOrder(ids []string) *Engine {
	e := New(nil)
	for i, id := range ids {
		inst := &Instance{id: id, pos: int32(i)}
		e.insts[id] = inst
		e.order = append(e.order, inst)
	}
	return e
}

// orderIDs is the creation order as IDs.
func orderIDs(e *Engine) []string {
	ids := make([]string, len(e.order))
	for i, inst := range e.order {
		ids[i] = inst.id
	}
	return ids
}

// TestSortInstanceOrderKeepsTheOrder holds the parse-once sort to the
// Sscanf comparator over engine-style IDs (padded, past six digits, equal
// numbers under different spellings), foreign IDs, and everything %d reads
// differently from a whole-string parse: signs, trailing text, an
// underscore, an overflow, an empty number.
func TestSortInstanceOrderKeepsTheOrder(t *testing.T) {
	ids := []string{
		"inst-000001", "inst-000002", "inst-000010", "inst-000100", "inst-999999", "inst-1000000", "inst-12345678",
		"inst-7", "inst-07", "inst-000007", "inst-0", "inst-+5", "inst--5", "inst-5x", "inst-5 6", "inst-12abc",
		"inst-1_0", "inst-_1", "inst-", "inst-+", "inst-x", "inst- 3", "inst-99999999999999999999", "inst-9223372036854775807",
		"order-17", "Inst-000003", "inst", "", "zeta", "alpha", "inst_000004", "inst-٣",
	}
	for _, id := range ids {
		var want int
		_, err := fmt.Sscanf(id, "inst-%d", &want)
		got, ok := instanceNumber(id)
		if id == "inst- 3" {
			// The one reading not kept: %d skips blanks before the number.
			// No ID this engine assigns has one, so it sorts as foreign.
			if ok {
				t.Errorf("instanceNumber(%q) = %d, want no number", id, got)
			}
			continue
		}
		if ok != (err == nil) || got != want {
			t.Errorf("instanceNumber(%q) = %d, %t; Sscanf reads %d, %v", id, got, ok, want, err)
		}
	}
	ids = slices.DeleteFunc(ids, func(id string) bool { return id == "inst- 3" })
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		want := slices.Clone(ids)
		sscanfOrder(want)
		e := engineWithOrder(ids)
		e.SortInstanceOrder()
		if got := orderIDs(e); !slices.Equal(got, want) {
			t.Fatalf("trial %d:\n got %q\nwant %q", trial, got, want)
		}
		for i, inst := range e.order {
			if int(inst.pos) != i {
				t.Fatalf("%q holds position %d at index %d", inst.id, inst.pos, i)
			}
		}
	}
}

// BenchmarkSortInstanceOrder sorts 24 000 shuffled engine IDs, what a
// 4-shard recovery of the benchmark's ingest_recover population hands it.
// With Sscanf in the comparator this was 0.53 s and 3.5 M allocations.
func BenchmarkSortInstanceOrder(b *testing.B) {
	const n = 24000
	ids := make([]string, n)
	for i := range ids {
		ids[i] = instanceID(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	e := engineWithOrder(ids)
	shuffled := slices.Clone(e.order)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(e.order, shuffled)
		e.SortInstanceOrder()
	}
}

// TestSortInstanceOrderAllocations: one key slice, whatever the population.
func TestSortInstanceOrderAllocations(t *testing.T) {
	ids := make([]string, 5000)
	for i := range ids {
		ids[i] = instanceID(len(ids) - i)
	}
	e := engineWithOrder(ids)
	shuffled := slices.Clone(e.order)
	if allocs := testing.AllocsPerRun(5, func() {
		copy(e.order, shuffled)
		e.SortInstanceOrder()
	}); allocs > 3 {
		t.Errorf("SortInstanceOrder allocates %.0f objects for %d instances, want at most 3", allocs, len(ids))
	}
}

// TestHistoryLenDoesNotCopy: the count the instance detail route reports
// costs nothing however long the history is; HistoryEvents, which the route
// used to call for it, copies every event and its value set.
func TestHistoryLenDoesNotCopy(t *testing.T) {
	e, inst := loopedInstance(t, 60)
	if inst.HistoryLen() < 200 {
		t.Fatalf("history of %d events after 60 iterations", inst.HistoryLen())
	}
	short, err := e.CreateInstance("loop", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []*Instance{short, inst} {
		if got, want := in.HistoryLen(), len(in.HistoryEvents()); got != want {
			t.Errorf("HistoryLen %d, HistoryEvents holds %d", got, want)
		}
		if allocs := testing.AllocsPerRun(20, func() { _ = in.HistoryLen() }); allocs != 0 {
			t.Errorf("HistoryLen allocates %.0f objects over %d events", allocs, in.HistoryLen())
		}
	}
	copies := func(in *Instance) float64 { return testing.AllocsPerRun(5, func() { _ = len(in.HistoryEvents()) }) }
	if few, many := copies(short), copies(inst); many <= few {
		t.Errorf("HistoryEvents allocates %.0f objects over %d events and %.0f over %d: the contrast this test draws is gone",
			few, short.HistoryLen(), many, inst.HistoryLen())
	}
}

// loopedInstance runs an init → loop(work) instance through the given
// number of iterations and leaves it in the last one.
func loopedInstance(t *testing.T, iterations int) (*Engine, *Instance) {
	t.Helper()
	b := model.NewBuilder("loop")
	b.DataElement("again", model.TypeBool)
	init := b.Activity("init", "Init", model.WithRole("clerk"))
	b.Write("init", "again", "a")
	work := b.Activity("work", "Work", model.WithRole("clerk"))
	b.Write("work", "again", "more")
	s, err := b.Build(b.Seq(init, b.Loop(work, "again", iterations+2)))
	if err != nil {
		t.Fatal(err)
	}
	e := New(demoOrg(t))
	if err := e.Deploy(s); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("loop", 0)
	if err != nil {
		t.Fatal(err)
	}
	mustComplete(t, e, inst.ID(), "init", "ann", map[string]any{"a": true})
	for i := 0; i < iterations; i++ {
		mustComplete(t, e, inst.ID(), "work", "ann", map[string]any{"more": true})
	}
	return e, inst
}
