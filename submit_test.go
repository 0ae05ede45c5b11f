package adept2_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"adept2"
	"adept2/internal/persist"
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
	sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Deploy(sim.OnlineOrder()); err != nil {
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
	got, err := adept2.Open(path, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	assertSameState(t, sys, got)
}

// TestSubmitBatchSingleFsync: on a plain sync journal, a batch of N data
// commands lands as one contiguous multi-record append (N records, one
// fsync — visible as one contiguous seq run).
func TestSubmitBatchSingleFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatal(err)
	}
	inst, err := sys.CreateInstance("online_order")
	if err != nil {
		t.Fatal(err)
	}
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
	sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Deploy(sim.OnlineOrder()); err != nil {
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
	if err := sys.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 23; i++ {
		if _, err := sys.CreateInstance("online_order"); err != nil {
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
	sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 11; i++ {
		inst, err := sys.CreateInstance("online_order")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, inst.ID())
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := adept2.Open(path, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg))
	if err != nil {
		t.Fatal(err)
	}
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
		if err := sys.Deploy(sim.OnlineOrder()); err != nil {
			t.Fatal(err)
		}
		inst, err := sys.CreateInstance("online_order")
		if err != nil {
			t.Fatal(err)
		}
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
	if err := sys.Deploy(sim.OnlineOrder()); err != nil {
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
