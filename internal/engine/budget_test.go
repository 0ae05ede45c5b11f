package engine

import (
	"encoding/json"
	"testing"
	"unsafe"

	"adept2/internal/history"
	"adept2/internal/model"
)

// TestStepAllocatesNothingItDrops: a start gathers the values it reads and
// a completion the values it writes into an array on the stack, and the
// log's Append copies them from there, so a step allocates only what its
// instance keeps. Here it keeps nothing new: rw reads and writes x, whose
// version list has room after the create's three automatic writes, and the
// log has room for both events (the create records eight events in the
// first 32 bytes, and its first binding sized the list for the schema's
// five data edges). A start with reads and a complete with a write then
// allocate nothing. They allocated four objects while each set was made
// on the heap and dropped after Append (two), the binding list grew one
// at a time (one), and Coerce boxed the written value again (one).
func TestStepAllocatesNothingItDrops(t *testing.T) {
	b := model.NewBuilder("step")
	b.DataElement("x", model.TypeString)
	var seq []model.Fragment
	for _, id := range []string{"w1", "w2", "w3"} {
		seq = append(seq, b.Activity(id, id, model.WithAuto()))
		b.Write(id, "x", "out")
	}
	seq = append(seq, b.Activity("rw", "Read and Write", model.WithRole("clerk")))
	b.Read("rw", "x", "in", true)
	b.Write("rw", "x", "out")
	s, err := b.Build(b.Seq(seq...))
	if err != nil {
		t.Fatal(err)
	}
	e := New(demoOrg(t))
	if err := e.Deploy(s); err != nil {
		t.Fatal(err)
	}
	const runs = 50
	insts := make([]*Instance, runs+1)
	for i := range insts {
		if insts[i], err = e.CreateInstance("step", 0); err != nil {
			t.Fatal(err)
		}
	}
	out := map[string]any{"out": "written"}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		id := insts[next].ID()
		next++
		if err := e.StartActivityAt(id, "rw", "ann", 0); err != nil {
			t.Fatal(err)
		}
		if err := e.CompleteActivity(id, "rw", "ann", out); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("a start with reads and a complete with a write allocate %.0f objects", allocs)
	if allocs != 0 {
		t.Errorf("a start with reads and a complete with a write allocate %.0f objects, want 0", allocs)
	}
	for _, ev := range insts[0].HistoryEvents() {
		if ev.Node != "rw" {
			continue
		}
		name, value := "in", "" // the start read what the automatic writers zero-filled
		if ev.Kind == history.Completed {
			name, value = "x", "written"
		}
		if v, ok := ev.Values.Get(name); len(ev.Values) != 1 || !ok || v != value {
			t.Errorf("%v of rw binds %v, want %s=%q", ev.Kind, ev.Values, name, value)
		}
	}
}

// TestRestoreSharesReadValues: a restored instance holds what a live one
// holds. A start binds what it read under the read edge's parameter, not
// under the element, so RestoreInstance maps the parameter to the element
// through the node's read edges before it asks the store for its own copy
// of the value; asking under the parameter found no element, and every
// recovered read kept the copy the snapshot's history decoded. The binding
// keeps the schema's parameter string too, not the decoded one.
func TestRestoreSharesReadValues(t *testing.T) {
	e := newEngine(t)
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	mustComplete(t, e, inst.ID(), "get_order", "ann", map[string]any{"out": "order-1"})
	mustComplete(t, e, inst.ID(), "compose_order", "bob", nil)

	snap, bias := inst.Snapshot()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded InstanceSnapshot
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	restored := newEngine(t)
	if err := restored.RestoreInstance(&decoded, bias); err != nil {
		t.Fatal(err)
	}
	got, ok := restored.Instance(inst.ID())
	if !ok {
		t.Fatalf("%s was not restored", inst.ID())
	}
	held, _ := got.store.Read("order")
	param := got.base.Schema.DataEdgesOf("compose_order")[0].Parameter
	var ev history.Event
	found := false
	for c := got.hist.Events(); c.Next(&ev); {
		if ev.Kind != history.Started || ev.Node != "compose_order" {
			continue
		}
		found = true
		if len(ev.Values) != 1 {
			t.Fatalf("compose_order's start binds %v, want its one read", ev.Values)
		}
		rb := ev.Values[0]
		if rb.Name != param || unsafe.StringData(rb.Name) != unsafe.StringData(param) {
			t.Errorf("the read is bound under %q at %p, not the read edge's parameter %q at %p",
				rb.Name, unsafe.StringData(rb.Name), param, unsafe.StringData(param))
		}
		v, _ := rb.Value.(string)
		s, _ := held.(string)
		if v != s || unsafe.StringData(v) != unsafe.StringData(s) {
			t.Errorf("the restored read holds %q at %p, the store %q at %p: not the store's own value",
				v, unsafe.StringData(v), s, unsafe.StringData(s))
		}
	}
	if !found {
		t.Fatal("the restored history has no start of compose_order")
	}
}

// TestSealedInstanceLayout: a finished instance keeps its core and drops
// the running part, and the two together are no bigger than the one block
// an instance was before the seal existed (448 B, a size class): the core
// fits the 224 B class and the running part the 192 B one. The seal
// happens in the command that finishes the instance, and a restored
// finished instance has no running part either.
func TestSealedInstanceLayout(t *testing.T) {
	if core, run := unsafe.Sizeof(Instance{}), unsafe.Sizeof(running{}); core > 224 || run > 192 {
		t.Errorf("an instance's core is %d B and its running part %d B, want at most 224 and 192", core, run)
	}
	e := newEngine(t)
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	mustComplete(t, e, inst.ID(), "get_order", "ann", map[string]any{"out": "order-1"})
	for _, step := range []struct{ node, user string }{
		{"collect_data", "ann"}, {"compose_order", "bob"}, {"confirm_order", "ann"}, {"pack_goods", "bob"},
	} {
		if inst.run == nil {
			t.Fatalf("%s is sealed before it finished", inst.ID())
		}
		mustComplete(t, e, inst.ID(), step.node, step.user, nil)
	}
	mustComplete(t, e, inst.ID(), "deliver_goods", "bob", nil)
	if !inst.Done() || inst.run != nil {
		t.Fatalf("%s: done %t, running part %p after its last completion", inst.ID(), inst.Done(), inst.run)
	}
	snap, bias := inst.Snapshot()
	restored := newEngine(t)
	if err := restored.RestoreInstance(snap, bias); err != nil {
		t.Fatal(err)
	}
	if got, _ := restored.Instance(inst.ID()); got.run != nil {
		t.Error("a restored finished instance has a running part")
	}
}
