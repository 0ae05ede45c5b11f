package history_test

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"adept2/internal/compliance"
	"adept2/internal/data"
	"adept2/internal/engine"
	"adept2/internal/graph"
	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/sim"
)

// lifecycle runs one online-order instance through its six activities on
// the engine — a start and a complete command each, stamped 1.5 s apart as
// a served system stamps them — and returns it finished: 16 events, the
// unit root doc.go's "Memory budget" is written in.
func lifecycle(t testing.TB, e *engine.Engine) *engine.Instance {
	t.Helper()
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	at := int64(1_790_000_000_000_000_000)
	for _, step := range []struct{ node, user string }{
		{"get_order", "ann"}, {"collect_data", "ann"}, {"compose_order", "bob"},
		{"confirm_order", "ann"}, {"pack_goods", "bob"}, {"deliver_goods", "bob"},
	} {
		var out map[string]any
		if step.node == "get_order" {
			out = map[string]any{"out": "order-" + inst.ID()}
		}
		at += 1_500_000_000
		if err := e.StartActivityAt(inst.ID(), step.node, step.user, at); err != nil {
			t.Fatal(err)
		}
		at += 1_500_000_000
		if err := e.CompleteActivity(inst.ID(), step.node, step.user, out, engine.WithCompletedAt(at)); err != nil {
			t.Fatal(err)
		}
	}
	if !inst.Done() || inst.HistoryLen() != 16 {
		t.Fatalf("lifecycle left %s done=%v with %d events, want a finished instance with 16", inst.ID(), inst.Done(), inst.HistoryLen())
	}
	return inst
}

func onlineOrderEngine(t testing.TB) *engine.Engine {
	t.Helper()
	e := engine.New(sim.Org())
	if err := e.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatal(err)
	}
	return e
}

// withLog runs fn on the instance's live log, under its lock.
func withLog(t testing.TB, inst *engine.Instance, fn func(l *history.Log, blocks *graph.Info)) {
	t.Helper()
	err := inst.Mutate(func(mx *engine.Mutable) error {
		blocks, err := mx.Blocks()
		if err != nil {
			return err
		}
		fn(mx.History(), blocks)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEventSize pins what the history costs per instance now that an event
// is a packed record and not a heap object: the 16 events of a finished
// online-order lifecycle average at most 10 bytes (they were 96 each, plus
// a pointer), the Log an instance embeds is 72 B, and the Event — now only
// the struct a record is decoded into, and the unit of every decode
// scratch — did not grow past its 96 B class. A NodeStat, the other
// per-instance record of this package, is three 32-bit numbers. A field
// added to a record or to either struct fails here with the figure, before
// it shows as heap_bytes_per_inst.
func TestEventSize(t *testing.T) {
	inst := lifecycle(t, onlineOrderEngine(t))
	withLog(t, inst, func(l *history.Log, _ *graph.Info) {
		mean := float64(l.PackedLen()) / float64(l.Len())
		t.Logf("%d events pack into %d bytes, %.1f each", l.Len(), l.PackedLen(), mean)
		if mean > 10 {
			t.Errorf("an event of the online-order lifecycle packs into %.1f bytes on average, over 10", mean)
		}
	})
	if got := unsafe.Sizeof(history.Log{}); got > 72 {
		t.Errorf("Log is %d B, over 72", got)
	}
	if got := unsafe.Sizeof(history.Event{}); got > 96 {
		t.Errorf("Event is %d B, over the 96 B size class", got)
	}
	if got := unsafe.Sizeof(history.NodeStat{}); got > 12 {
		t.Errorf("NodeStat is %d B, over 12", got)
	}
	t.Logf("Log %d B, Event %d B, NodeStat %d B, data.Binding %d B",
		unsafe.Sizeof(history.Log{}), unsafe.Sizeof(history.Event{}), unsafe.Sizeof(history.NodeStat{}), unsafe.Sizeof(data.Binding{}))
}

// TestHistoryAppendAllocations: appending the 16 events of a lifecycle to
// a fresh log of a table that knows their strings allocates only the
// growths of the log's records (32, 64, 128 B) and its binding list, made
// once with room for the lifecycle's bindings as the engine makes it from
// its view's data-edge count — four, where it was six while the list grew
// 1, 2, 4, and an object per event plus five growths of a pointer slice
// before that. The event handed to Append is not kept, so it does not
// count.
func TestHistoryAppendAllocations(t *testing.T) {
	e := onlineOrderEngine(t)
	events := lifecycle(t, e).HistoryEvents()
	bindings := 0
	for _, ev := range events {
		bindings += len(ev.Values)
	}
	syms := history.NewSymbols()
	replay := func(l *history.Log) {
		l.ReserveBindings(bindings)
		for _, ev := range events {
			cp := *ev
			l.Append(&cp)
		}
	}
	want := syms.NewLog()
	replay(want) // and the table learns the strings
	allocs := testing.AllocsPerRun(50, func() { replay(syms.NewLog()) })
	t.Logf("appending %d events with %d bindings allocates %.0f objects", len(events), bindings, allocs)
	if allocs > 4 {
		t.Errorf("appending a lifecycle's %d events allocates %.0f objects, want at most the 4 growths of the log", len(events), allocs)
	}
	if got := want.Events().Decode(nil); !reflect.DeepEqual(got, events) {
		t.Errorf("the re-appended log decodes to\n%v\nwant\n%v", got, events)
	}
}

// TestReduceIntoSteadyState holds the decode scratch to its contract, in
// the call shape every population scan has (evolution's migration worker,
// the mining scan, bench/layers.go): a reduced history that is passed back
// in as the next call's buffer. Once the buffer has seen the population a
// further pass allocates nothing; a result stays what it was until its
// buffer is passed back; and the event a compliance error names outlives
// that next call, because Replay copies it.
func TestReduceIntoSteadyState(t *testing.T) {
	e := onlineOrderEngine(t)
	insts := []*engine.Instance{lifecycle(t, e), lifecycle(t, e)}
	for _, advance := range []func(*engine.Engine, *engine.Instance) error{sim.AdvanceOnlineOrderToI1, sim.AdvanceOnlineOrderToI3} {
		inst, err := e.CreateInstance("online_order", 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := advance(e, inst); err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
	}
	target := sim.OnlineOrder()
	info, err := graph.Analyze(target)
	if err != nil {
		t.Fatal(err)
	}

	var reduced []*history.Event
	var rp compliance.Replayer
	pass := func() {
		for _, inst := range insts {
			withLog(t, inst, func(l *history.Log, blocks *graph.Info) {
				reduced = history.ReduceInto(blocks, l.Events(), reduced)
				if _, err := rp.Replay(target, info, reduced); err != nil {
					t.Fatalf("%s does not replay on its own schema: %v", inst.ID(), err)
				}
				if len(reduced) != l.Len() {
					t.Fatalf("%s: %d of %d events survive a reduction with nothing to purge", inst.ID(), len(reduced), l.Len())
				}
			})
		}
	}
	pass()
	for _, inst := range insts {
		withLog(t, inst, func(l *history.Log, blocks *graph.Info) {
			if allocs := testing.AllocsPerRun(20, func() { reduced = history.ReduceInto(blocks, l.Events(), reduced) }); allocs != 0 {
				t.Errorf("%s: a reduction into a buffer that has seen the population allocates %.0f objects", inst.ID(), allocs)
			}
		})
	}

	// A result is the caller's until its buffer goes back in: appends to
	// the log it was read from and reductions into other buffers leave it.
	var held, want []*history.Event
	withLog(t, insts[2], func(l *history.Log, blocks *graph.Info) {
		reduced = history.ReduceInto(blocks, l.Events(), reduced)
		held = reduced
		for _, ev := range held {
			cp := *ev
			want = append(want, &cp)
		}
	})
	if err := e.CompleteActivity(insts[2].ID(), "pack_goods", "bob", nil); err != nil {
		t.Fatal(err)
	}
	withLog(t, insts[0], func(l *history.Log, blocks *graph.Info) {
		_ = history.ReduceInto(blocks, l.Events(), nil)
	})
	if !reflect.DeepEqual(held, want) {
		t.Errorf("a held result changed without its buffer being passed back:\n%v\nwant\n%v", held, want)
	}

	// A schema without pack_goods refuses the I3 instance at that node's
	// Started event; the error still names it after the buffer is reused.
	b := model.NewBuilder("online_order")
	short, err := b.Build(b.Activity("get_order", "Get Order", model.WithRole("clerk")))
	if err != nil {
		t.Fatal(err)
	}
	shortInfo, err := graph.Analyze(short)
	if err != nil {
		t.Fatal(err)
	}
	var cerr *compliance.Error
	withLog(t, insts[3], func(l *history.Log, blocks *graph.Info) {
		reduced = history.ReduceInto(blocks, l.Events(), reduced)
		_, err := rp.Replay(short, shortInfo, reduced)
		if !errors.As(err, &cerr) || cerr.Event == nil {
			t.Fatalf("replay on a one-activity schema: %v, want a compliance error naming an event", err)
		}
	})
	named := *cerr.Event
	withLog(t, insts[0], func(l *history.Log, blocks *graph.Info) {
		reduced = history.ReduceInto(blocks, l.Events(), reduced)
	})
	if !reflect.DeepEqual(*cerr.Event, named) || named.Seq == 0 || named.Node == "" {
		t.Errorf("the error's event changed when the buffer was reused: %v, was %v", cerr.Event, &named)
	}
}
