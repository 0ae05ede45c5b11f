package adept2_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adept2"
	"adept2/internal/durable/sharded"
	"adept2/internal/persist"
	"adept2/internal/rpc"
	"adept2/internal/sim"
	"adept2/internal/vfs"
)

// TestSubmitBatchSemantics: results align with the applied prefix, a
// failing command journals the commands before it, control commands
// interleave with their epoch semantics intact, and the whole batch
// survives recovery.
func TestSubmitBatchSemantics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	cfg := adept2.CheckpointConfig{Every: -1}
	sys := openCheckpointed(t, path, cfg)
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Mixed batch: data commands around a control command, then a
	// failing command, then one that would have succeeded.
	results, err := sys.SubmitBatch(ctx, []adept2.Command{
		&adept2.CreateInstance{TypeName: "online_order"},                           // 0
		&adept2.CreateInstance{TypeName: "online_order"},                           // 1
		&adept2.AddUser{User: &adept2.User{ID: "carol", Roles: []string{"clerk"}}}, // 2: control
		&adept2.CreateInstance{TypeName: "online_order"},                           // 3
		&adept2.CreateInstance{TypeName: "no_such_type"},                           // 4: fails
		&adept2.CreateInstance{TypeName: "online_order"},                           // never applied
	})
	if !errors.Is(err, adept2.ErrNotFound) {
		t.Fatalf("batch error = %v, want ErrNotFound", err)
	}
	if len(results) != 4 {
		t.Fatalf("results for %d commands, want 4 (applied prefix)", len(results))
	}
	i0 := results[0].(*adept2.Instance)
	if results[2] != nil {
		t.Fatalf("AddUser result = %v, want nil", results[2])
	}
	if _, ok := sys.Org().User("carol"); !ok {
		t.Fatal("control command in batch was not applied")
	}
	if len(sys.Instances()) != 3 {
		t.Fatalf("%d instances, want 3 (the failing create and its successor must not apply)", len(sys.Instances()))
	}

	// Same-instance ordering within one batch run.
	if _, err := sys.SubmitBatch(ctx, []adept2.Command{
		&adept2.CompleteActivity{Instance: i0.ID(), Node: "get_order", User: "ann", Outputs: map[string]any{"out": "b"}},
		&adept2.Suspend{Instance: i0.ID()},
		&adept2.Resume{Instance: i0.ID()},
	}); err != nil {
		t.Fatal(err)
	}

	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything applied (including the batch prefix before the failure)
	// must be durable and replayable.
	got := openCheckpointed(t, path, cfg)
	defer got.Close()
	assertSameState(t, sys, got)
}

// TestSubmitBatchSingleFsync: on a plain sync journal, a batch of N data
// commands is staged before its shard is woken once (N records, one fsync
// — visible as one contiguous seq run).
func TestSubmitBatchSingleFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
	if err != nil {
		t.Fatal(err)
	}
	inst := res.(*adept2.Instance)
	before := sys.JournalSeq()
	batch := make([]adept2.Command, 0, 8)
	for i := 0; i < 4; i++ {
		batch = append(batch, &adept2.Suspend{Instance: inst.ID()}, &adept2.Resume{Instance: inst.ID()})
	}
	if _, err := sys.SubmitBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if got := sys.JournalSeq(); got != before+8 {
		t.Fatalf("journal seq %d, want %d", got, before+8)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := persist.LoadJournalSuffixFS(vfs.OS(), path, 0)
	if err != nil {
		t.Fatal(err)
	}
	ops := ""
	for _, r := range recs[len(recs)-8:] {
		ops += r.Op + " "
	}
	if ops != "suspend suspend suspend suspend suspend suspend suspend suspend " {
		t.Fatalf("batch wire ops: %s", ops)
	}
}

// TestSubmitAsyncReceiptResolvesDurable: a receipt's Wait returns only
// once the record is fsync-covered — verified by reopening the journal
// from disk after Wait and finding the record.
func TestSubmitAsyncReceiptResolvesDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	cfg := adept2.CheckpointConfig{Every: -1}
	sys := openCheckpointed(t, path, cfg)
	defer sys.Close()
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r, err := sys.SubmitAsync(ctx, &adept2.CreateInstance{TypeName: "online_order"})
	if err != nil {
		t.Fatal(err)
	}
	inst := r.Result().(*adept2.Instance)
	if inst == nil || inst.ID() == "" {
		t.Fatal("async result must be available before durability")
	}
	if err := r.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(ctx); err != nil { // idempotent
		t.Fatal(err)
	}
	// The record is on disk now, without closing the system.
	recs, _, err := persist.LoadJournalSuffixFS(vfs.OS(), path, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rec := range recs {
		if rec.Op == "create" && rec.Seq == r.Seq() {
			found = true
		}
	}
	if !found {
		t.Fatalf("create record seq %d not durable after Wait (journal has %d records)", r.Seq(), len(recs))
	}
}

// TestPaginationMatchesFullListings: walking WorkItemsPage/InstancesPage
// to exhaustion reproduces exactly the unpaginated listings, page sizes
// are honored, and unknown cursors yield empty pages.
func TestPaginationMatchesFullListings(t *testing.T) {
	sys := adept2.New(adept2.WithOrg(sim.Org()))
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 23; i++ {
		if _, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"}); err != nil {
			t.Fatal(err)
		}
	}

	var pagedInsts []string
	pages := 0
	for cursor := ""; ; {
		page, next := sys.InstancesPage(cursor, 7)
		if len(page) > 7 {
			t.Fatalf("page of %d, limit 7", len(page))
		}
		for _, inst := range page {
			pagedInsts = append(pagedInsts, inst.ID())
		}
		pages++
		if next == "" {
			break
		}
		cursor = next
	}
	all := sys.Instances()
	if len(pagedInsts) != len(all) || pages != 4 {
		t.Fatalf("paged %d instances in %d pages, want %d in 4", len(pagedInsts), pages, len(all))
	}
	for i, inst := range all {
		if pagedInsts[i] != inst.ID() {
			t.Fatalf("page order diverges at %d: %s != %s", i, pagedInsts[i], inst.ID())
		}
	}
	if page, next := sys.InstancesPage("inst-999999", 7); len(page) != 0 || next != "" {
		t.Fatalf("unknown cursor must yield an empty page, got %d/%q", len(page), next)
	}

	var pagedItems []string
	for cursor := ""; ; {
		page, next := sys.WorkItemsPage("ann", cursor, 5)
		if len(page) > 5 {
			t.Fatalf("work item page of %d, limit 5", len(page))
		}
		for _, it := range page {
			pagedItems = append(pagedItems, it.ID)
		}
		if next == "" {
			break
		}
		cursor = next
	}
	full := sys.WorkItems("ann")
	if len(pagedItems) != len(full) {
		t.Fatalf("paged %d work items, full listing has %d", len(pagedItems), len(full))
	}
	for i, it := range full {
		if pagedItems[i] != it.ID {
			t.Fatalf("work item page order diverges at %d: %s != %s", i, pagedItems[i], it.ID)
		}
	}
}

// TestPaginationSurvivesShardedRecovery: cursors are instance IDs, which
// recovery reproduces exactly — a page walk after a sharded reopen sees
// the same creation order.
func TestPaginationSurvivesShardedRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	cfg := adept2.CheckpointConfig{Every: -1, Shards: 4}
	sys := openCheckpointed(t, path, cfg)
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 11; i++ {
		res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
		if err != nil {
			t.Fatal(err)
		}
		inst := res.(*adept2.Instance)
		want = append(want, inst.ID())
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	got := openCheckpointed(t, path, cfg)
	defer got.Close()
	var pageWalk []string
	for cursor := ""; ; {
		page, next := got.InstancesPage(cursor, 4)
		for _, inst := range page {
			pageWalk = append(pageWalk, inst.ID())
		}
		if next == "" {
			break
		}
		cursor = next
	}
	if fmt.Sprint(pageWalk) != fmt.Sprint(want) {
		t.Fatalf("page walk after recovery %v, want %v", pageWalk, want)
	}
}

// TestSubmitCheckpointTriggerAllocationFree: the background-checkpoint
// trigger compares the summed shard heads on every journaled command, and
// under the default Every that is every opened system's submit path — it
// must cost no allocation. Pinned differentially: Submit allocates the
// same with the trigger armed (Every 1024, never reached here) as with it
// off, at one shard and at four.
func TestSubmitCheckpointTriggerAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	ctx := context.Background()
	allocs := func(shards, every int) float64 {
		sys, err := adept2.Open("wal", adept2.WithVFS(vfs.NewMemFS()), adept2.WithOrg(sim.Org()),
			adept2.WithMetricsDisabled(),
			adept2.WithCheckpointing(adept2.CheckpointConfig{Every: every, Shards: shards}))
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		if _, err := sys.Submit(ctx, &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
			t.Fatal(err)
		}
		res, err := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"})
		if err != nil {
			t.Fatal(err)
		}
		inst := res.(*adept2.Instance)
		i := 0
		return testing.AllocsPerRun(200, func() {
			if _, err := sys.Submit(ctx, toggle(inst.ID(), i)); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	for _, shards := range []int{1, 4} {
		if armed, off := allocs(shards, 1024), allocs(shards, -1); armed != off {
			t.Errorf("shards=%d: Submit allocates %.0f with the checkpoint trigger armed, %.0f with it off", shards, armed, off)
		}
	}
}

// TestSubmitStampsTheRecordNotTheCommand: the journal record of a create,
// start or complete carries the ID or time the live path assigned, and
// the caller's command does not — one &CreateInstance{} submitted twice
// creates two instances, where a stamped ID would make the second submit
// a duplicate.
func TestSubmitStampsTheRecordNotTheCommand(t *testing.T) {
	fsys := vfs.NewMemFS()
	sys, err := adept2.Open("wal", adept2.WithVFS(fsys), adept2.WithOrg(sim.Org()),
		adept2.WithCheckpointing(adept2.CheckpointConfig{Every: -1}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	create := &adept2.CreateInstance{TypeName: "online_order"}
	first, err := sys.Submit(ctx, create)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := sys.SubmitBatch(ctx, []adept2.Command{create, create})
	if err != nil {
		t.Fatalf("resubmitting one CreateInstance: %v", err)
	}
	ids := map[string]bool{first.(*adept2.Instance).ID(): true}
	for _, res := range batch {
		ids[res.(*adept2.Instance).ID()] = true
	}
	if len(ids) != 3 || *create != (adept2.CreateInstance{TypeName: "online_order"}) {
		t.Fatalf("3 submits of %+v created instances %v", *create, ids)
	}
	id := first.(*adept2.Instance).ID()
	start := &adept2.StartActivity{Instance: id, Node: "get_order", User: "ann"}
	complete := &adept2.CompleteActivity{Instance: id, Node: "get_order", User: "ann", Outputs: map[string]any{"out": "o-1"}}
	for _, cmd := range []adept2.Command{start, complete} {
		if _, err := sys.Submit(ctx, cmd); err != nil {
			t.Fatal(err)
		}
	}
	if start.At != 0 || complete.At != 0 {
		t.Fatalf("the live path wrote its clock into the caller's commands: start.At=%d complete.At=%d", start.At, complete.At)
	}

	recs, _, err := persist.LoadJournalSuffixFS(fsys, "wal", 0)
	if err != nil {
		t.Fatal(err)
	}
	stamped := 0
	for _, rec := range recs {
		var args struct {
			ID string `json:"id"`
			At int64  `json:"at"`
		}
		if err := json.Unmarshal(rec.Args, &args); err != nil {
			t.Fatal(err)
		}
		switch rec.Op {
		case "create":
			if !ids[args.ID] {
				t.Fatalf("create record %s carries no assigned ID", rec.Args)
			}
			stamped++
		case "start", "complete":
			if args.At == 0 {
				t.Fatalf("%s record %s carries no time", rec.Op, rec.Args)
			}
			stamped++
		}
	}
	if stamped != 5 {
		t.Fatalf("%d stamped records among %d, want 3 creates + start + complete", stamped, len(recs))
	}
}

// measureSchema is a two-step type whose first step writes a float and a
// string: the outputs the journal can carry only when they are finite and
// valid UTF-8.
func measureSchema(t *testing.T) *adept2.Schema {
	t.Helper()
	b := adept2.NewBuilder("measure")
	b.DataElement("x", adept2.TypeFloat)
	b.DataElement("note", adept2.TypeString)
	first := b.Activity("a", "Measure", adept2.WithRole("clerk"))
	second := b.Activity("b", "Check", adept2.WithRole("clerk"))
	b.Write("a", "x", "x")
	b.Write("a", "note", "note")
	b.Read("b", "x", "x", true)
	s, err := b.Build(b.Seq(first, second))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// measure returns the completion of a measure instance's first step.
func measure(id string, x any, note string) adept2.Command {
	return &adept2.CompleteActivity{Instance: id, Node: "a", User: "ann",
		Outputs: map[string]any{"x": x, "note": note}}
}

// instanceOnShard creates measure instances until one routes to shard k of
// an n-shard layout and returns it, its first step started.
func instanceOnShard(t *testing.T, sys *adept2.System, k, n int) string {
	t.Helper()
	for i := 0; i < 256; i++ {
		res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "measure"})
		if err != nil {
			t.Fatal(err)
		}
		inst := res.(*adept2.Instance)
		if sharded.ShardOf(inst.ID(), n) == k {
			if _, err := sys.Submit(context.Background(), &adept2.StartActivity{Instance: inst.ID(), Node: "a", User: "ann"}); err != nil {
				t.Fatal(err)
			}
			return inst.ID()
		}
	}
	t.Fatalf("no instance on shard %d", k)
	return ""
}

// TestSubmitRefusesOutputsTheJournalCannotCarry: a completion whose output
// has no journal form — a NaN or infinite float, a string that is not
// valid UTF-8 — is refused with ErrInvalid before it mutates anything, on
// every submission path, and a reopen equals the live state. Accepted,
// such a completion was applied and then lost its record (an error with
// Applied set, the completion gone after a reopen), or came back altered
// ("bad\xff" as "bad�"). An rpc client answers as Submit does: it refuses
// such a completion before its line leaves. It failed NaN and ±Inf with
// CodeInternal, and sent "bad\xff" as "bad�", which the server applied.
func TestSubmitRefusesOutputsTheJournalCannotCarry(t *testing.T) {
	ctx := context.Background()
	// remote submits through an rpc client of sys, served for the one call.
	remote := func(submit func(cli *rpc.Client, cmd adept2.Command) error) func(*adept2.System, adept2.Command) error {
		return func(sys *adept2.System, cmd adept2.Command) error {
			srv, err := rpc.NewServer(sys, rpc.Options{})
			if err != nil {
				return err
			}
			defer srv.Close(ctx)
			cli, err := rpc.Dial(ctx, srv.URL())
			if err != nil {
				return err
			}
			defer cli.Close()
			return submit(cli, cmd)
		}
	}
	paths := map[string]func(sys *adept2.System, cmd adept2.Command) error{
		"Submit": func(sys *adept2.System, cmd adept2.Command) error {
			_, err := sys.Submit(ctx, cmd)
			return err
		},
		"SubmitAsync": func(sys *adept2.System, cmd adept2.Command) error {
			_, err := sys.SubmitAsync(ctx, cmd)
			return err
		},
		"SubmitBatch": func(sys *adept2.System, cmd adept2.Command) error {
			res, err := sys.SubmitBatch(ctx, []adept2.Command{cmd})
			if err != nil && len(res) != 0 {
				return fmt.Errorf("a refused batch returned results %v (%v)", res, err)
			}
			return err
		},
		"rpc Submit": remote(func(cli *rpc.Client, cmd adept2.Command) error {
			_, err := cli.Submit(ctx, cmd)
			return err
		}),
		"rpc SubmitAsync": remote(func(cli *rpc.Client, cmd adept2.Command) error {
			_, err := cli.SubmitAsync(ctx, cmd)
			return err
		}),
		"rpc SubmitBatch": remote(func(cli *rpc.Client, cmd adept2.Command) error {
			res, err := cli.SubmitBatch(ctx, []adept2.Command{cmd})
			if err != nil && len(res) != 0 {
				return fmt.Errorf("a refused batch returned results %v (%v)", res, err)
			}
			return err
		}),
	}
	for name, submit := range paths {
		t.Run(name, func(t *testing.T) {
			fsys := vfs.NewMemFS()
			open := func() *adept2.System {
				sys, err := adept2.Open("wal", adept2.WithVFS(fsys), adept2.WithOrg(sim.Org()))
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			sys := open()
			if _, err := sys.Submit(ctx, &adept2.Deploy{Schema: measureSchema(t)}); err != nil {
				t.Fatal(err)
			}
			id := instanceOnShard(t, sys, 0, 1)
			before := sim.Summary(sys)
			for _, out := range []struct {
				x    any
				note string
			}{{math.NaN(), "ok"}, {math.Inf(1), "ok"}, {math.Inf(-1), "ok"}, {1.5, "bad\xff"}} {
				err := submit(sys, measure(id, out.x, out.note))
				var e *adept2.Error
				if !errors.Is(err, adept2.ErrInvalid) || !errors.As(err, &e) || e.Applied {
					t.Fatalf("completion with x=%v note=%q: %v, want ErrInvalid not applied", out.x, out.note, err)
				}
				if d := sim.Diff(before, sim.Summary(sys)); d != "" {
					t.Fatalf("a refused completion with x=%v note=%q moved the system:\n%s", out.x, out.note, d)
				}
			}
			if err := submit(sys, measure(id, 1.5, "fine")); err != nil {
				t.Fatal(err)
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			got := open()
			defer got.Close()
			assertSameState(t, sys, got)
		})
	}
}

// TestSubmitRefusesStringsTheJournalCannotCarry: a command that would keep
// a string that is not UTF-8 — an instance ID, a user, a schema's node or
// data element, a failure's reason, a completing user — is refused with
// ErrInvalid before it mutates anything, and a reopen equals the live
// state. Acknowledged, such a string came back as U+FFFD after the reopen:
// "inst-\xff" was gone and "inst-�" there instead.
func TestSubmitRefusesStringsTheJournalCannotCarry(t *testing.T) {
	ctx := context.Background()
	fsys := vfs.NewMemFS()
	open := func() *adept2.System {
		sys, err := adept2.Open("wal", adept2.WithVFS(fsys), adept2.WithOrg(sim.Org()))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := open()
	if _, err := sys.Submit(ctx, &adept2.Deploy{Schema: measureSchema(t)}); err != nil {
		t.Fatal(err)
	}
	id := instanceOnShard(t, sys, 0, 1)
	before := sim.Summary(sys)

	badSchema := func(typeName, activity, element string) *adept2.Schema {
		b := adept2.NewBuilder(typeName)
		b.DataElement(element, adept2.TypeFloat)
		a := b.Activity("a", activity, adept2.WithRole("clerk"))
		b.Write("a", element, "x")
		s, err := b.Build(a)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	insert := func(nodeID, name string) []adept2.Operation {
		return []adept2.Operation{&adept2.SerialInsert{
			Node: &adept2.Node{ID: nodeID, Name: name, Type: adept2.NodeActivity, Role: "clerk"},
			Pred: "a", Succ: "b",
		}}
	}
	for _, cmd := range []adept2.Command{
		&adept2.CreateInstance{TypeName: "measure", ID: "inst-\xff"},
		&adept2.AddUser{User: &adept2.User{ID: "eve\xff", Name: "Eve", Roles: []string{"clerk"}}},
		&adept2.AddUser{User: &adept2.User{ID: "eve", Name: "Eve\xff", Roles: []string{"clerk"}}},
		&adept2.Deploy{Schema: badSchema("measure\xff", "Measure", "x")},
		&adept2.Deploy{Schema: badSchema("other", "Me\xffasure", "x")},
		&adept2.Deploy{Schema: badSchema("other", "Measure", "x\xff")},
		&adept2.AdHoc{Instance: id, Ops: insert("c\xff", "Check")},
		&adept2.AdHoc{Instance: id, Ops: insert("c", "Ch\xffeck")},
		&adept2.Evolve{TypeName: "measure", Ops: insert("c", "Ch\xffeck")},
		&adept2.FailActivity{Instance: id, Node: "a", User: "ann", Reason: "boom\xff"},
		&adept2.CompleteActivity{Instance: id, Node: "a", User: "ann\xff", Outputs: map[string]any{"x": 1.5}},
	} {
		_, err := sys.Submit(ctx, cmd)
		var e *adept2.Error
		if !errors.Is(err, adept2.ErrInvalid) || !errors.As(err, &e) || e.Applied {
			t.Errorf("%#v: %v, want ErrInvalid not applied", cmd, err)
		}
		if d := sim.Diff(before, sim.Summary(sys)); d != "" {
			t.Fatalf("a refused %T moved the system:\n%s", cmd, d)
		}
	}
	if _, ok := sys.Org().User("eve"); ok {
		t.Fatal("a refused user was added")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	got := open()
	defer got.Close()
	assertSameState(t, sys, got)
}

// TestSubmitKeepsAnOutputPast16MiB: a completion whose journal line is
// 17 MiB long is acknowledged, and a reopen reads it back — the same
// state and data as the live system. With the journal scan capped at
// 16 MiB a line, Submit returned nil and every later Open failed with
// "bufio.Scanner: token too long".
func TestSubmitKeepsAnOutputPast16MiB(t *testing.T) {
	ctx := context.Background()
	fsys := vfs.NewMemFS()
	open := func() *adept2.System {
		sys, err := adept2.Open("wal", adept2.WithVFS(fsys), adept2.WithOrg(sim.Org()))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := open()
	if _, err := sys.Submit(ctx, &adept2.Deploy{Schema: measureSchema(t)}); err != nil {
		t.Fatal(err)
	}
	id := instanceOnShard(t, sys, 0, 1)
	if _, err := sys.Submit(ctx, measure(id, 1.5, strings.Repeat("x", 17<<20))); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	got := open()
	defer got.Close()
	assertSameState(t, sys, got)
}

// TestRefusedCompletionLeavesTheNodeActivated: completing a node that is
// only activated starts it first, and a completion the engine refuses — a
// missing, unknown or NaN output, or an XOR split with no decision — is
// ErrInvalid, not applied, and leaves the node activated: the same state,
// history and work items, and a reopen equal to the live state. A start
// made before the refusal left the node running, with a Started event and
// a started work item that no journal record carried.
func TestRefusedCompletionLeavesTheNodeActivated(t *testing.T) {
	ctx := context.Background()
	b := adept2.NewBuilder("refuse")
	b.DataElement("x", adept2.TypeFloat)
	first := b.Activity("a", "Measure", adept2.WithRole("clerk"))
	b.Write("a", "x", "x")
	choice := b.Choice("",
		b.Activity("y", "Y", adept2.WithRole("clerk")),
		b.Activity("z", "Z", adept2.WithRole("clerk")))
	schema, err := b.Build(b.Seq(first, choice))
	if err != nil {
		t.Fatal(err)
	}
	var split string
	for _, n := range schema.Nodes() {
		if n.Type == adept2.NodeXORSplit {
			split = n.ID
		}
	}

	fsys := vfs.NewMemFS()
	open := func() *adept2.System {
		sys, err := adept2.Open("wal", adept2.WithVFS(fsys), adept2.WithOrg(sim.Org()))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := open()
	if _, err := sys.Submit(ctx, &adept2.Deploy{Schema: schema}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "refuse"})
	if err != nil {
		t.Fatal(err)
	}
	inst := res.(*adept2.Instance)
	refuse := func(node string, outputs map[string]any) {
		t.Helper()
		before := sim.Summary(sys)
		_, err := sys.Submit(ctx, &adept2.CompleteActivity{Instance: inst.ID(), Node: node, User: "ann", Outputs: outputs})
		var e *adept2.Error
		if !errors.Is(err, adept2.ErrInvalid) || !errors.As(err, &e) || e.Applied {
			t.Fatalf("completion of %s with %v: %v, want ErrInvalid not applied", node, outputs, err)
		}
		if st := inst.NodeState(node).String(); st != "activated" {
			t.Fatalf("a refused completion of %s left it %s, want activated", node, st)
		}
		if d := sim.Diff(before, sim.Summary(sys)); d != "" {
			t.Fatalf("a refused completion of %s moved the system:\n%s", node, d)
		}
	}
	refuse("a", map[string]any{})
	refuse("a", map[string]any{"x": 1.5, "y": 2.5})
	refuse("a", map[string]any{"x": math.NaN()})
	if _, err := sys.Submit(ctx, &adept2.CompleteActivity{Instance: inst.ID(), Node: "a", User: "ann", Outputs: map[string]any{"x": 1.5}}); err != nil {
		t.Fatal(err)
	}
	refuse(split, nil)

	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	got := open()
	defer got.Close()
	assertSameState(t, sys, got)
}

// TestSubmitBatchKeepsStagedPrefix: a run of [valid, refused, valid]
// completions on one shard keeps what it staged before the refusal. The
// results hold the first completion, the error is the refusal's (not
// applied), the third completion never applies, and a reopen has the first
// completion and its data. A run that staged its records as one group
// refused the whole group after applying all of it, and the reopen lost
// the first completion.
func TestSubmitBatchKeepsStagedPrefix(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			fsys := vfs.NewMemFS()
			cfg := adept2.CheckpointConfig{Shards: shards}
			open := func() *adept2.System {
				sys, err := adept2.Open("wal", adept2.WithVFS(fsys), adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg))
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			sys := open()
			if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: measureSchema(t)}); err != nil {
				t.Fatal(err)
			}
			ids := make([]string, 3)
			for i := range ids {
				ids[i] = instanceOnShard(t, sys, shards-1, shards)
			}
			results, err := sys.SubmitBatch(context.Background(), []adept2.Command{
				measure(ids[0], 1.5, "first"),
				measure(ids[1], math.Inf(1), "second"),
				measure(ids[2], 2.5, "third"),
			})
			var e *adept2.Error
			if !errors.Is(err, adept2.ErrInvalid) || !errors.As(err, &e) || e.Applied {
				t.Fatalf("batch error %v, want ErrInvalid not applied", err)
			}
			if len(results) != 1 {
				t.Fatalf("%d results, want the first completion's alone", len(results))
			}
			for i, want := range []string{"completed", "running", "running"} {
				if inst, _ := sys.Instance(ids[i]); inst.NodeState("a").String() != want {
					t.Fatalf("completion %d: a is %s, want %s", i, inst.NodeState("a"), want)
				}
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			got := open()
			defer got.Close()
			assertSameState(t, sys, got)
		})
	}
}

// parkedShard is a 4-shard system on a MemFS whose shard-1 journal fsyncs
// wait, once park is called, until release; parked is closed when the
// first one waits. The journal's lock is held across that fsync, so a
// second record on shard 1 waits for the release too.
type parkedShard struct {
	sys    *adept2.System
	armed  atomic.Bool
	parked chan struct{}
	gate   chan struct{}
	onPark sync.Once
	onFree sync.Once
}

func (p *parkedShard) park()    { p.armed.Store(true) }
func (p *parkedShard) release() { p.onFree.Do(func() { close(p.gate) }) }

// openParkedShard opens a parkedShard under the default checkpoint
// cadence, the measure type deployed. The test's cleanup releases the
// disk before it closes the system.
func openParkedShard(t *testing.T) *parkedShard {
	t.Helper()
	p := &parkedShard{parked: make(chan struct{}), gate: make(chan struct{})}
	victim := sharded.Layout{Base: "wal", Shards: 4}.JournalPath(1)
	fsys := vfs.NewFaultFS(vfs.NewMemFS(), func(_ int64, op vfs.OpRef) vfs.Decision {
		if op.Kind == vfs.OpSync && op.Path == victim && p.armed.Load() {
			p.onPark.Do(func() { close(p.parked) })
			<-p.gate
		}
		return vfs.Decision{}
	})
	sys, err := adept2.Open("wal", adept2.WithVFS(fsys), adept2.WithOrg(sim.Org()),
		adept2.WithCheckpointing(adept2.CheckpointConfig{Shards: 4}))
	if err != nil {
		t.Fatal(err)
	}
	p.sys = sys
	t.Cleanup(func() {
		p.release()
		sys.Close()
	})
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: measureSchema(t)}); err != nil {
		t.Fatal(err)
	}
	return p
}

// within fails the test unless done delivers within 2 s.
func within(t *testing.T, what string, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("%s did not return within 2 s", what)
	}
}

// TestParkedShardDoesNotStallOtherShards: while shard 1's fsync is parked,
// a command on shard 2 returns at once with automatic checkpoints on. Their
// trigger reads every shard's head after each command; a head read that
// took the journal's lock waited for the parked flush, so one slow disk
// stalled every shard.
func TestParkedShardDoesNotStallOtherShards(t *testing.T) {
	p := openParkedShard(t)
	ctx := context.Background()
	on1, on2 := instanceOnShard(t, p.sys, 1, 4), instanceOnShard(t, p.sys, 2, 4)
	p.park()
	rcpt, err := p.sys.SubmitAsync(ctx, measure(on1, 1.5, "parked"))
	if err != nil {
		t.Fatal(err)
	}
	<-p.parked
	done := make(chan error, 1)
	go func() {
		_, err := p.sys.Submit(ctx, measure(on2, 2.5, "free"))
		done <- err
	}()
	within(t, "a Submit on shard 2 with shard 1's fsync parked", done)
	p.release()
	if err := rcpt.Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitBatchWaitHoldsNoBarrier: a SubmitBatch run waits for its
// records after releasing the command barrier, so with its shard's fsync
// parked a control command — which takes the barrier exclusively at 4
// shards — still goes through. A run that held the barrier across its wait
// held every control command and checkpoint behind its fsync.
func TestSubmitBatchWaitHoldsNoBarrier(t *testing.T) {
	p := openParkedShard(t)
	ctx := context.Background()
	on1 := instanceOnShard(t, p.sys, 1, 4)
	p.park()
	batch := make(chan error, 1)
	go func() {
		_, err := p.sys.SubmitBatch(ctx, []adept2.Command{measure(on1, 1.5, "batched")})
		batch <- err
	}()
	<-p.parked
	added := make(chan error, 1)
	go func() {
		_, err := p.sys.Submit(ctx, &adept2.AddUser{User: &adept2.User{ID: "eve", Roles: []string{"clerk"}}})
		added <- err
	}()
	within(t, "AddUser during a batch's durability wait", added)
	select {
	case err := <-batch:
		t.Fatalf("the batch returned (%v) with its fsync parked", err)
	default:
	}
	p.release()
	within(t, "the batch after the release", batch)
}
