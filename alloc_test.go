package adept2_test

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"adept2"
	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/model"
	"adept2/internal/rollback"
	"adept2/internal/sim"
	"adept2/internal/vfs"
)

// TestSubmitAllocationBudget measures allocations per command kind through
// Submit, SubmitAsync+Wait and SubmitBatch of 64, on a MemFS store with
// metrics on (what `adeptctl serve` ships), and fails when a kind costs
// more than its pinned count + 1 — so a transient allocation that creeps
// back onto the command path (a heap Receipt on the sync path, a waiter
// channel per durability wait, a boxed record per journal line, a copy of
// the command to stamp it, a candidate list copied per offer) fails here
// by name, not as a drift in a benchmark.
func TestSubmitAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	const (
		runs  = 40 // AllocsPerRun calls f runs+1 times
		batch = 64
	)
	ctx := context.Background()
	sys, err := adept2.Open("wal", adept2.WithVFS(vfs.NewMemFS()), adept2.WithOrg(sim.Org()),
		adept2.WithCheckpointing(adept2.CheckpointConfig{Every: -1}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if _, err := sys.Submit(ctx, &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}

	// cmdFor builds a command for one instance; population returns n fresh
	// instances advanced by the given commands (outside every measured
	// function).
	type cmdFor = func(id string) adept2.Command
	population := func(n int, advance ...cmdFor) []string {
		t.Helper()
		ids := make([]string, n)
		for i := range ids {
			res, err := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"})
			if err != nil {
				t.Fatal(err)
			}
			inst := res.(*adept2.Instance)
			ids[i] = inst.ID()
			for _, cmd := range advance {
				if _, err := sys.Submit(ctx, cmd(ids[i])); err != nil {
					t.Fatal(err)
				}
			}
		}
		return ids
	}
	start := func(node, user string) cmdFor {
		return func(id string) adept2.Command {
			return &adept2.StartActivity{Instance: id, Node: node, User: user}
		}
	}
	complete := func(node, user string, out map[string]any) cmdFor {
		return func(id string) adept2.Command {
			return &adept2.CompleteActivity{Instance: id, Node: node, User: user, Outputs: out}
		}
	}
	order := map[string]any{"out": "order-1"}
	// bias inserts the benchmark's send_brochure: under the hybrid
	// representation the instance then reads its schema through an overlay.
	// (The benchmark's sync edge is left out: it holds compose_order back,
	// which changes what the worklist holds when a row runs, not what a
	// read of the view costs.)
	bias := func(id string) adept2.Command {
		return &adept2.AdHoc{Instance: id, Ops: []adept2.Operation{&adept2.SerialInsert{
			Node: &adept2.Node{ID: "send_brochure", Name: "Send Brochure", Type: adept2.NodeActivity, Role: "sales", Template: "send_brochure"},
			Pred: "collect_data", Succ: "confirm_order",
		}}}
	}

	// One row per command kind: the commands that prepare a fresh instance
	// for it, the measured commands (two for suspend/resume, reported per
	// command), and what one command allocates on each submission path —
	// the measured count, which the test allows one above. The parent of
	// the change that pinned them read 28, 7, 16, 35 and 5 through Submit;
	// create and complete+outputs read 18 and 19 while an instance's loop
	// counts, data store and write sets were Go maps, and 16, 2, 3 and 18
	// while every history event was a heap object: what is left of the
	// history is the growth of its log, which falls on a command or not
	// with the bytes its timestamps take (the +1 covers it; a batch row is
	// pinned at the most it was seen to read). Create, complete and
	// complete+outputs read 15, 2 and 14 while the worklist kept a derived
	// ID string per item and rebuilt an instance's item list after each
	// withdrawal, every batch row 0.09 more while the batch's multi-record
	// append grouped it through a map (11 allocations a batch), and 0.05
	// more while a run gathered its effects, its records and each shard's
	// records into slices of their own (5 a batch; now 2: the results and
	// the run's last position per shard). Create, complete, complete
	// biased/untouched, complete biased/inserted and complete+outputs read
	// 13, 1, 2, 1 and 7 while a create allocated an instance's marking,
	// execution index and data store field by field (ten objects, now four)
	// and a withdrawn work item was dropped instead of recycled into the
	// next offer. Start+reads and complete+outputs read 2 and 6 while a
	// step gathered its reads or writes into a set on the heap, and the
	// first also paid the binding list's growth, the second a written
	// value boxed again by Coerce. doc.go's "Allocation budget"
	// names every allocation behind the submit column; SubmitAsync adds its
	// heap Receipt (create's fraction rounds it away), and SubmitBatch pays
	// its two slices once per 64 commands. The biased rows are the start
	// and complete rows again on an instance that carries the bias, once on
	// a node the bias does not touch and once on the inserted one, and read
	// the same: an overlay's per-key reads return the base's or the delta's
	// stored list, nothing is built per command.
	for _, k := range []struct {
		kind                 string
		prepare, cmds        []cmdFor
		submit, async, batch float64
	}{
		{kind: "create", submit: 7, async: 8, batch: 7.06,
			cmds: []cmdFor{func(string) adept2.Command { return &adept2.CreateInstance{TypeName: "online_order"} }}},
		{kind: "start", submit: 1, async: 2, batch: 1.03,
			cmds: []cmdFor{start("get_order", "ann")}},
		{kind: "start+reads", submit: 0, async: 1, batch: 0.03, // compose_order reads order
			prepare: []cmdFor{complete("get_order", "ann", order)},
			cmds:    []cmdFor{start("compose_order", "bob")}},
		{kind: "complete", submit: 0, async: 1, batch: 1.05, // offers confirm_order in the item collect_data's withdrawal recycled
			prepare: []cmdFor{complete("get_order", "ann", order), start("collect_data", "ann")},
			cmds:    []cmdFor{complete("collect_data", "ann", nil)}},
		{kind: "start biased/untouched", submit: 1, async: 2, batch: 1.03,
			prepare: []cmdFor{bias},
			cmds:    []cmdFor{start("get_order", "ann")}},
		{kind: "complete biased/untouched", submit: 1, async: 2, batch: 1.03, // offers pack_goods; the log growth falls on it, or on the row before
			prepare: []cmdFor{bias, complete("get_order", "ann", order), start("compose_order", "bob")},
			cmds:    []cmdFor{complete("compose_order", "bob", nil)}},
		{kind: "start biased/inserted", submit: 1, async: 2, batch: 1.03,
			prepare: []cmdFor{bias, complete("get_order", "ann", order), complete("collect_data", "ann", nil)},
			cmds:    []cmdFor{start("send_brochure", "ann")}},
		{kind: "complete biased/inserted", submit: 0, async: 1, batch: 0.05, // offers confirm_order
			prepare: []cmdFor{bias, complete("get_order", "ann", order), complete("collect_data", "ann", nil), start("send_brochure", "ann")},
			cmds:    []cmdFor{complete("send_brochure", "ann", nil)}},
		{kind: "complete+outputs", submit: 4, async: 5, batch: 4.06, // a data write, two items offered; 10 while the journal encoded the args through encoding/json
			prepare: []cmdFor{start("get_order", "ann")},
			cmds:    []cmdFor{complete("get_order", "ann", order)}},
		{kind: "suspend/resume", submit: 0, async: 1, batch: 0.03,
			cmds: []cmdFor{
				func(id string) adept2.Command { return &adept2.Suspend{Instance: id} },
				func(id string) adept2.Command { return &adept2.Resume{Instance: id} },
			}},
	} {
		// build returns the commands of n instances, in submission order.
		build := func(n int) []adept2.Command {
			ids := make([]string, n) // create needs none
			if k.kind != "create" {
				ids = population(n, k.prepare...)
			}
			cmds := make([]adept2.Command, 0, n*len(k.cmds))
			for _, id := range ids {
				for _, c := range k.cmds {
					cmds = append(cmds, c(id))
				}
			}
			return cmds
		}
		per := len(k.cmds)
		paths := []struct {
			name   string
			pinned float64
			size   int // commands per measured call
			call   func(cmds []adept2.Command)
		}{
			{"Submit", k.submit, per, func(cmds []adept2.Command) {
				for _, c := range cmds {
					if _, err := sys.Submit(ctx, c); err != nil {
						t.Fatal(err)
					}
				}
			}},
			{"SubmitAsync+Wait", k.async, per, func(cmds []adept2.Command) {
				for _, c := range cmds {
					r, err := sys.SubmitAsync(ctx, c)
					if err == nil {
						err = r.Wait(ctx)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}},
			{"SubmitBatch/64", k.batch, batch, func(cmds []adept2.Command) {
				if _, err := sys.SubmitBatch(ctx, cmds); err != nil {
					t.Fatal(err)
				}
			}},
		}
		for _, p := range paths {
			cmds := build((runs + 1) * p.size / per)
			next := 0
			allocs := testing.AllocsPerRun(runs, func() {
				p.call(cmds[next : next+p.size])
				next += p.size
			})
			perCmd := allocs / float64(p.size)
			t.Logf("%-24s %-17s %6.2f allocs/cmd (pinned %g)", k.kind, p.name, perCmd, p.pinned)
			if perCmd > p.pinned+1 {
				t.Errorf("%s through %s allocates %.2f objects per command, pinned at %g (+1)",
					k.kind, p.name, perCmd, p.pinned)
			}
		}
	}
}

// TestDecodeWireCommandAllocations pins what decoding a flat command
// costs — on the wire, and at recovery, which replays every record through
// the same decoder: the command and its strings. The args are as the
// journal writes them: a start carries the time the live path stamped, 19
// digits, and an integer reader that gave up at 18 would send every
// replayed record to the reference after the plain attempt (11 allocations
// where encoding/json alone makes 8; this is the shape that shows it). A
// completion whose outputs are plain strings is read from the field table
// too: the command and its strings, the map, and each output's key, value
// and the value's interface box (16 while the outputs were the
// reference's).
//
// A stream's decoder (System.WireDecoder(true)) reuses its structs and
// resolves names: a start or a complete that names an instance, a node and
// a user the System holds allocates nothing, and each of its strings is
// the engine's own — the instance's ID, the symbol table's node and user —
// so overwriting the line leaves the command as it was. A name the System
// does not hold still decodes, as a copy (4 and 4 with new structs).
func TestDecodeWireCommandAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	for _, c := range []struct {
		op, args string
		bound    float64
	}{
		{"start", `{"instance":"inst-000001","node":"collect_data","user":"ann","at":1700000000000000000}`, 4},
		{"complete", `{"instance":"inst-000001","node":"collect_data","user":"ann","at":1700000000000000000}`, 4},
		{"create", `{"type":"online_order","version":0}`, 2},
		{"create", `{"type":"online_order","version":0,"id":"inst-000001"}`, 3}, // the record: the assigned ID is one string more
		{"suspend", `{"instance":"inst-000001","resume":true}`, 3},
		{"complete", `{"instance":"inst-000001","node":"get_order","user":"ann","outputs":{"out":"order-0"},"at":1700000000000000000}`, 9},
	} {
		args := json.RawMessage(c.args)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := adept2.DecodeWireCommand(c.op, args); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("decoding %s %s allocates %.0f objects", c.op, c.args, allocs)
		if allocs > c.bound {
			t.Errorf("decoding %s %s allocates %.0f objects, want at most %.0f", c.op, c.args, allocs, c.bound)
		}
	}

	sys := adept2.New(adept2.WithOrg(sim.Org()))
	defer sys.Close()
	runLifecycles(t, sys, 20)
	inst, _ := sys.Instance("inst-000001")
	var node, user string // the symbol table's strings, as the history names them
	for _, ev := range inst.HistoryEvents() {
		if ev.Node == "get_order" && ev.User == "ann" {
			node, user = ev.Node, ev.User
		}
	}
	dec := sys.WireDecoder(true)
	for _, c := range []struct {
		op, args string
		bound    float64
		held     bool // every name is one the System holds
	}{
		{"start", `{"instance":"inst-000001","node":"get_order","user":"ann","at":1700000000000000000}`, 0, true},
		{"complete", `{"instance":"inst-000001","node":"get_order","user":"ann","at":1700000000000000000}`, 0, true},
		{"start", `{"instance":"inst-900001","node":"no_such_node","user":"nobody"}`, 3, false},
		{"complete", `{"instance":"inst-900001","node":"no_such_node","user":"nobody"}`, 3, false},
	} {
		op, line := []byte(c.op), []byte(c.args)
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := dec.Decode(op, line); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("a stream decoding %s %s allocates %.0f objects", c.op, c.args, allocs)
		if allocs > c.bound {
			t.Errorf("a stream decoding %s %s allocates %.0f objects, want at most %.0f", c.op, c.args, allocs, c.bound)
		}
		want, err := adept2.DecodeWireCommand(c.op, line)
		if err != nil {
			t.Fatal(err)
		}
		cmd, _, err := dec.Decode(op, line)
		if err != nil {
			t.Fatal(err)
		}
		for i := range line {
			line[i] = '#'
		}
		if !reflect.DeepEqual(cmd, want) {
			t.Errorf("%s %s: overwriting the line changed the decoded command to %#v", c.op, c.args, cmd)
		}
		var names [3]string
		switch cmd := cmd.(type) {
		case *adept2.StartActivity:
			names = [3]string{cmd.Instance, cmd.Node, cmd.User}
		case *adept2.CompleteActivity:
			names = [3]string{cmd.Instance, cmd.Node, cmd.User}
		}
		for i, own := range []string{inst.ID(), node, user} {
			if same := unsafe.StringData(names[i]) == unsafe.StringData(own); same != c.held {
				t.Errorf("%s %s: %q is the engine's own string: %t, want %t", c.op, c.args, names[i], same, c.held)
			}
		}
	}
}

// liveHeap returns the bytes of heap objects still reachable.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestInstanceHeapBudget measures what one finished online-order instance
// keeps on the heap — the benchmark's heap_bytes_per_inst, in a test: 2 000
// instances are run through their 13-command lifecycle on a MemFS store,
// the live heap is read after a collection with the population held and
// again with the system closed and dropped, and the difference per instance
// may not exceed the measured figure by more than 3 %. doc.go's "Memory
// budget" names every structure behind the figure. The same population
// checks that Footprint tells the truth: the StateBytes of all instances sum
// to the measured heap within 10 %.
func TestInstanceHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not reproducible under the race detector")
	}
	const (
		n      = 2000
		pinned = 712 // bytes per instance, measured; 1 105 while a finished instance kept its marking, execution index, loop counts and exception state, 1 137 while the history's binding list grew to four for three bindings, 1 218 while the marking stored a skip stamp per node, 1 237 while an instance's marking, execution index and data store were separate objects and the marking's arrays four, 1 303 while the engine kept a position map and the order as ID strings, 2 766 while every history event was a 96 B heap object, 4 694 with the per-instance maps
	)
	// The journal's bytes live in the MemFS, which stays referenced across
	// both readings and so cancels out of the difference.
	fs := vfs.NewMemFS()
	sys, err := adept2.Open("wal", adept2.WithVFS(fs), adept2.WithOrg(sim.Org()),
		adept2.WithCheckpointing(adept2.CheckpointConfig{Every: -1}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if sys != nil {
			sys.Close()
		}
	}()
	runLifecycles(t, sys, n)
	held := liveHeap()
	footprint := 0
	for _, inst := range sys.Instances() {
		footprint += inst.Footprint().StateBytes
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys = nil
	dropped := liveHeap()
	runtime.KeepAlive(fs)

	perInst := float64(held-dropped) / n
	t.Logf("one finished online-order instance holds %.0f B of heap (pinned %d); Footprint().StateBytes says %.0f B",
		perInst, pinned, float64(footprint)/n)
	if perInst > pinned*1.03 {
		t.Errorf("an instance holds %.0f B of heap, pinned at %d (+3 %%)", perInst, pinned)
	}
	if ratio := float64(footprint) / float64(held-dropped); ratio < 0.9 || ratio > 1.1 {
		t.Errorf("Footprint().StateBytes sums to %.0f B per instance, the heap holds %.0f B: off by more than 10 %%",
			float64(footprint)/n, perInst)
	}
}

// orderLifecycle is the start and completion order of an online-order
// instance's activities, each with a user who may run it.
var orderLifecycle = []struct{ node, user string }{
	{"get_order", "ann"}, {"collect_data", "ann"}, {"compose_order", "bob"},
	{"confirm_order", "ann"}, {"pack_goods", "bob"}, {"deliver_goods", "bob"},
}

// runLifecycles deploys the online-order type and runs n instances of it
// through their 13-command lifecycle.
func runLifecycles(t *testing.T, sys *adept2.System, n int) {
	t.Helper()
	ctx := context.Background()
	if _, err := sys.Submit(ctx, &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		res, err := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"})
		if err != nil {
			t.Fatal(err)
		}
		inst := res.(*adept2.Instance)
		for _, step := range orderLifecycle {
			var out map[string]any
			if step.node == "get_order" {
				out = map[string]any{"out": "order-" + inst.ID()}
			}
			for _, cmd := range []adept2.Command{
				&adept2.StartActivity{Instance: inst.ID(), Node: step.node, User: step.user},
				&adept2.CompleteActivity{Instance: inst.ID(), Node: step.node, User: step.user, Outputs: out},
			} {
				if _, err := sys.Submit(ctx, cmd); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !inst.Done() {
			t.Fatalf("%s is not done after its lifecycle", inst.ID())
		}
	}
}

// TestRecoveredInstanceHeap: an instance restored from a snapshot holds
// what a live one holds. 2 000 finished online-order instances are
// measured as TestInstanceHeapBudget measures them, checkpointed, and
// measured again after Open recovers them from the snapshot; the two
// figures per instance may differ by 3 %. A finished instance is restored
// sealed, as the live one is sealed: without a marking, an execution index
// or exception state, its history's records in the capacity a live log of
// their length has, and its bindings sharing the schema's names and the
// store's values.
func TestRecoveredInstanceHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not reproducible under the race detector")
	}
	const n = 2000
	fs := vfs.NewMemFS()
	open := func() *adept2.System {
		sys, err := adept2.Open("wal", adept2.WithVFS(fs), adept2.WithOrg(sim.Org()),
			adept2.WithCheckpointing(adept2.CheckpointConfig{Every: -1}))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	// perInst is the heap sys holds per instance, read before and after
	// closing and dropping it (the MemFS stays referenced across both).
	perInst := func(sys *adept2.System) float64 {
		if got := len(sys.Instances()); got != n {
			t.Fatalf("the system holds %d instances, want %d", got, n)
		}
		held := liveHeap()
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		sys = nil
		dropped := liveHeap()
		runtime.KeepAlive(fs)
		return float64(held-dropped) / n
	}
	sys := open()
	runLifecycles(t, sys, n)
	if _, _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	live := perInst(sys)
	sys = open()
	if info := sys.Recovery(); info.FullReplay || info.Replayed != 0 {
		t.Fatalf("recovery %+v, want the snapshot and no suffix", info)
	}
	recovered := perInst(sys)
	t.Logf("a finished instance holds %.0f B of heap live and %.0f B recovered from a snapshot", live, recovered)
	if recovered > live*1.03 || recovered < live*0.97 {
		t.Errorf("a recovered instance holds %.0f B, a live one %.0f B: more than 3 %% apart", recovered, live)
	}
}

// TestBiasedInstanceHeapBudget measures what an ad-hoc change adds to an
// instance's heap under the hybrid representation — Fig. 2's concern, and
// a fifth of adapt_evolve's population: 2 000 fresh online-order instances
// are measured as TestInstanceHeapBudget measures them, once as created and
// once after the benchmark's conflicting bias (an inserted activity under a
// per-instance ID and a sync edge), and the difference per instance may not
// exceed the measured figure by more than 3 %. doc.go's "Memory budget" has
// the table behind it. The two populations also check that Footprint
// accounts for it: what StateBytes + BiasBytes + ViewBytes say the bias adds
// is what the heap says within 10 %. (The totals are not compared: a fresh
// instance has an offered work item, which is the worklist's memory and in
// no instance's footprint.)
func TestBiasedInstanceHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes are not reproducible under the race detector")
	}
	const (
		n      = 2000
		pinned = 4400 // bytes the bias adds per instance, measured; 12 376 while the overlay kept a second adjacency index and the topology eleven slice headers per node
	)
	// population returns the heap and the footprint per instance of n fresh
	// instances, biased or not.
	population := func(bias bool) (heap, footprint float64) {
		fs := vfs.NewMemFS()
		sys, err := adept2.Open("wal", adept2.WithVFS(fs), adept2.WithOrg(sim.Org()),
			adept2.WithCheckpointing(adept2.CheckpointConfig{Every: -1}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
			if err != nil {
				t.Fatal(err)
			}
			inst := res.(*adept2.Instance)
			if !bias {
				continue
			}
			if _, err := sys.Submit(context.Background(), &adept2.AdHoc{Instance: inst.ID(), Ops: []adept2.Operation{&adept2.SerialInsert{
				Node: &adept2.Node{ID: fmt.Sprintf("send_brochure_%d", i), Name: "Send Brochure", Type: adept2.NodeActivity, Role: "sales", Template: "send_brochure"},
				Pred: "collect_data", Succ: "confirm_order",
			}, &adept2.InsertSyncEdge{From: "confirm_order", To: "compose_order"}}}); err != nil {
				t.Fatal(err)
			}
		}
		held := liveHeap()
		sum := 0
		for _, inst := range sys.Instances() {
			f := inst.Footprint()
			sum += f.StateBytes + f.BiasBytes + f.ViewBytes
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		sys = nil
		dropped := liveHeap()
		runtime.KeepAlive(fs)
		return float64(held-dropped) / n, float64(sum) / n
	}
	unbiased, unbiasedFootprint := population(false)
	biased, biasedFootprint := population(true)
	added, accounted := biased-unbiased, biasedFootprint-unbiasedFootprint
	t.Logf("a fresh instance holds %.0f B of heap, a biased one %.0f B: the bias adds %.0f B (pinned %d); Footprint says it adds %.0f B",
		unbiased, biased, added, pinned, accounted)
	if added > pinned*1.03 {
		t.Errorf("the bias adds %.0f B of heap to an instance, pinned at %d (+3 %%)", added, pinned)
	}
	if ratio := accounted / added; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("StateBytes + BiasBytes + ViewBytes grow by %.0f B per biased instance, the heap by %.0f B: off by more than 10 %%",
			accounted, added)
	}
}

// TestAdHocAllocationBudget measures what the change path allocates on the
// engine: an ad-hoc change of an unbiased instance and of a biased one (the
// benchmark's conflicting bias, an inserted activity and a sync edge, split
// over two changes), and undoing the last op or the whole bias of an
// instance carrying it. Each change builds one overlay, verifies it once and
// installs it; the counts are dominated by the verifier's whole-view lists
// and the block analysis, and a second analysis or a materialized copy
// creeping back onto the path fails here by name. A row may exceed its
// pinned count by 2 % plus one. The parent of the change that pinned them read 330,
// 310, 359 and 267 while a change materialized the view and analysed the
// result twice, and an undo cloned the base and analysed it twice more;
// 174, 174, 172 and 20 while a marking's remap allocated its four arrays
// one by one.
func TestAdHocAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	const runs = 50
	e := engine.New(sim.Org())
	if err := e.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatal(err)
	}
	insert := &change.SerialInsert{
		Node: &model.Node{ID: "send_brochure", Name: "Send Brochure", Type: model.NodeActivity, Role: "sales", Template: "send_brochure"},
		Pred: "collect_data", Succ: "confirm_order",
	}
	syncEdge := &change.InsertSyncEdge{From: "confirm_order", To: "compose_order"}
	for _, row := range []struct {
		kind    string
		prepare []change.Operation
		run     func(inst *engine.Instance) error
		pinned  float64
	}{
		{"AdHoc unbiased", nil,
			func(inst *engine.Instance) error { return change.ApplyAdHoc(inst, insert, syncEdge) }, 172},
		{"AdHoc biased", []change.Operation{insert},
			func(inst *engine.Instance) error { return change.ApplyAdHoc(inst, syncEdge) }, 172},
		{"UndoLast", []change.Operation{insert, syncEdge}, rollback.UndoLast, 167},
		{"UndoAll", []change.Operation{insert, syncEdge}, rollback.UndoAll, 14}, // the deployed version's analysis: no verification, no overlay
	} {
		insts := make([]*engine.Instance, runs+1)
		for i := range insts {
			inst, err := e.CreateInstance("online_order", 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range row.prepare {
				if err := change.ApplyAdHoc(inst, op); err != nil {
					t.Fatal(err)
				}
			}
			insts[i] = inst
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if err := row.run(insts[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
		t.Logf("%-15s %6.0f allocs (pinned %g)", row.kind, allocs, row.pinned)
		if allocs > row.pinned*1.02+1 {
			t.Errorf("%s allocates %.0f objects, pinned at %g (+2 %% +1)", row.kind, allocs, row.pinned)
		}
	}
}
