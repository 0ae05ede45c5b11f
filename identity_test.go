package adept2_test

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"adept2"
	"adept2/internal/rpc"
	"adept2/internal/sim"
)

// worklistView is what a worklist client holds of a system: every user's
// rows with their item IDs, and per user a cursor into the middle of the
// listing together with the IDs that followed it.
type worklistView struct {
	rows   string
	cursor map[string]string
	tail   map[string]string
}

var identityUsers = []string{"ann", "bob", "cyn", "dan"}

func itemIDs(items []*adept2.WorkItem) string {
	ids := make([]string, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	return strings.Join(ids, " ")
}

func viewWorklists(t *testing.T, sys *adept2.System) worklistView {
	t.Helper()
	v := worklistView{cursor: map[string]string{}, tail: map[string]string{}}
	var b strings.Builder
	for _, user := range identityUsers {
		items := sys.WorkItems(user)
		if len(items) < 4 {
			t.Fatalf("%s sees only %d items — population degenerated", user, len(items))
		}
		for _, it := range items {
			fmt.Fprintf(&b, "%s %s %s/%s role=%s state=%s claimed=%q offered=%v\n",
				user, it.ID, it.Instance, it.Node, it.Role, it.State, it.ClaimedBy, it.Offered)
		}
		_, v.cursor[user] = sys.WorkItemsPage(user, "", len(items)/2)
		v.tail[user] = itemIDs(items[len(items)/2:])
	}
	v.rows = b.String()
	return v
}

// TestWorkItemIdentityAcrossRecoveryAndReshard: a work-item ID and a page
// cursor are functions of journaled facts only, so what a client read
// from one process means the same to the next one — whether that one
// recovered from snapshot + suffix or by full replay (where four shards
// replay concurrently and re-offer in a different interleaving every
// time), and whatever shard count a reshard left behind.
func TestWorkItemIdentityAcrossRecoveryAndReshard(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	sys := openCheckpointed(t, path, shardedCfg())
	d := newDriver(t, sys, 5, false)
	d.run(200)
	if _, _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.run(100)
	want := viewWorklists(t, sys)

	// The same cursor as the wire hands it out.
	srv, err := rpc.NewServer(sys, rpc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := rpc.Dial(ctx, srv.URL())
	if err != nil {
		t.Fatal(err)
	}
	annItems := sys.WorkItems("ann")
	pg, err := cli.WorkItems(ctx, "ann", "", len(annItems)/2)
	if err != nil || pg.Next != want.cursor["ann"] {
		t.Fatalf("remote cursor %q (err %v), local %q", pg.Next, err, want.cursor["ann"])
	}
	cli.Close()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, got *adept2.System) {
		t.Helper()
		if v := viewWorklists(t, got); v.rows != want.rows {
			t.Fatalf("worklist rows differ:\n--- before\n%s--- after\n%s", want.rows, v.rows)
		}
		for _, user := range identityUsers {
			rest, next := got.WorkItemsPage(user, want.cursor[user], 1<<20)
			if ids := itemIDs(rest); ids != want.tail[user] || next != "" {
				t.Fatalf("%s: cursor %q continues with [%s] next=%q, want [%s]",
					user, want.cursor[user], ids, next, want.tail[user])
			}
		}
		// An ID read before the restart names the same activity after it.
		held := annItems[len(annItems)/2]
		items := got.WorkItems("ann")
		i := slices.IndexFunc(items, func(it *adept2.WorkItem) bool { return it.ID == held.ID })
		if i < 0 || items[i].Instance != held.Instance || items[i].Node != held.Node {
			t.Fatalf("%s does not name %s/%s in ann's worklist after the restart", held.ID, held.Instance, held.Node)
		}
		// ... and the cursor one server handed out resumes on the next.
		srv, err := rpc.NewServer(got, rpc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close(ctx)
		cli, err := rpc.Dial(ctx, srv.URL())
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		pg, err := cli.WorkItems(ctx, "ann", want.cursor["ann"], 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(pg.Items))
		for i, it := range pg.Items {
			ids[i] = it.ID
		}
		if got := strings.Join(ids, " "); got != want.tail["ann"] || pg.Next != "" {
			t.Fatalf("remote cursor continues with [%s] next=%q, want [%s]", got, pg.Next, want.tail["ann"])
		}
	}

	t.Run("snapshot+suffix", func(t *testing.T) {
		got := openCheckpointed(t, path, shardedCfg())
		defer got.Close()
		if info := got.Recovery(); info.FullReplay || info.Replayed == 0 {
			t.Fatalf("expected snapshot + suffix recovery, got %+v", info)
		}
		check(t, got)
	})
	t.Run("full-replay", func(t *testing.T) {
		got, err := adept2.Open(path, adept2.WithOrg(sim.Org()), fullReplay(t))
		if err != nil {
			t.Fatal(err)
		}
		defer got.Close()
		if info := got.Recovery(); !info.FullReplay || info.Shards != 4 {
			t.Fatalf("expected a 4-shard full replay, got %+v", info)
		}
		check(t, got)
	})
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("reshard-to-%d", n), func(t *testing.T) {
			if err := adept2.Reshard(path, n, adept2.WithOrg(sim.Org())); err != nil {
				t.Fatal(err)
			}
			got := openCheckpointed(t, path, adept2.CheckpointConfig{Shards: n, Every: -1})
			defer got.Close()
			if got.Recovery().Shards != n {
				t.Fatalf("recovered %d shards, want %d", got.Recovery().Shards, n)
			}
			check(t, got)
		})
	}
}

// TestLateRoleMemberSeesTheItemTheyStart: the engine lets a user who
// joined a role after an offer start its item — it checks the org model's
// current roles — so the item must then be in that user's worklist too,
// started by the org model's string for them, and stay there across a
// restart, from a snapshot and by full replay, until it completes.
func TestLateRoleMemberSeesTheItemTheyStart(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	sys := openCheckpointed(t, path, adept2.CheckpointConfig{Every: -1})
	if _, err := sys.Submit(ctx, &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"})
	if err != nil {
		t.Fatal(err)
	}
	inst := res.(*adept2.Instance)
	if _, err := sys.Submit(ctx, &adept2.AddUser{User: &adept2.User{ID: "eve", Roles: []string{"clerk"}}}); err != nil {
		t.Fatal(err)
	}
	start := &adept2.StartActivity{Instance: inst.ID(), Node: "get_order", User: strings.Clone("eve")}
	if _, err := sys.Submit(ctx, start); err != nil {
		t.Fatal(err)
	}
	id := inst.ID() + "/get_order"
	check := func(t *testing.T, sys *adept2.System) {
		t.Helper()
		for _, user := range []string{"ann", "cyn", "eve"} {
			items := sys.WorkItems(user)
			if len(items) != 1 || items[0].ID != id || items[0].State.String() != "in-progress" || items[0].ClaimedBy != "eve" {
				t.Fatalf("%s sees %+v, want %s in progress by eve", user, items, id)
			}
		}
	}
	check(t, sys)
	eve, _ := sys.Org().User("eve")
	if it := sys.WorkItems("eve")[0]; unsafe.StringData(it.ClaimedBy) != unsafe.StringData(eve.ID) {
		t.Fatal("the item keeps the command's user string, not the org model's")
	}
	if _, _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// The snapshot is read first: the full replay's run completes the item.
	for _, reopen := range []struct {
		name string
		opt  adept2.Option
	}{
		{"snapshot", adept2.WithCheckpointing(adept2.CheckpointConfig{Every: -1})},
		{"full-replay", fullReplay(t)},
	} {
		t.Run(reopen.name, func(t *testing.T) {
			got, err := adept2.Open(path, adept2.WithOrg(sim.Org()), reopen.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer got.Close()
			if full := got.Recovery().FullReplay; full != (reopen.name == "full-replay") {
				t.Fatalf("recovered by full replay: %v", full)
			}
			check(t, got)
			if reopen.name == "snapshot" {
				return
			}
			done := &adept2.CompleteActivity{Instance: inst.ID(), Node: "get_order", User: "eve", Outputs: map[string]any{"out": "o"}}
			if _, err := got.Submit(ctx, done); err != nil {
				t.Fatal(err)
			}
			for _, it := range got.WorkItems("eve") {
				if it.ID == id {
					t.Fatalf("eve still sees %+v after completing it", it)
				}
			}
		})
	}
}
