package adept2_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"adept2"
	"adept2/internal/change"
	"adept2/internal/durable"
	"adept2/internal/engine"
	"adept2/internal/evolution"
	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/rollback"
	"adept2/internal/sim"
	"adept2/internal/sim/soak"
	"adept2/internal/state"
	"adept2/internal/vfs"
)

// TestSealedInstancesDeriveWhatTheyHeld: a finished instance drops its
// marking, execution index, loop counts and exception state, and a reader
// gets them derived from its history. At every seal, the running part the
// instance held is compared with the one its history derives
// (engine.SetSealCheck), over three command mixes: the differential
// driver's (ad-hoc biases, undo, migration, suspension), the soak's at
// seeds 1–3 (failed and timed-out attempts, skip and suspend reactions,
// migrations, crashes), and sim.RandomSchema types driven through iterating
// loops and XOR skips with failures, ad-hoc changes, undo and migration.
// No seal may differ.
func TestSealedInstancesDeriveWhatTheyHeld(t *testing.T) {
	var (
		mu    sync.Mutex
		seals int
		diffs []string
	)
	engine.SetSealCheck(func(id, diff string) {
		mu.Lock()
		defer mu.Unlock()
		seals++
		if diff != "" {
			diffs = append(diffs, id+": "+diff)
		}
	})
	t.Cleanup(func() { engine.SetSealCheck(nil) })
	// sealed runs a mix and requires it to have sealed at least min
	// instances, all of them deriving what they held.
	sealed := func(t *testing.T, min int, mix func()) {
		t.Helper()
		mu.Lock()
		seals, diffs = 0, nil
		mu.Unlock()
		mix()
		mu.Lock()
		defer mu.Unlock()
		t.Logf("%d seals", seals)
		if seals < min {
			t.Errorf("%d instances were sealed, want at least %d", seals, min)
		}
		for i, d := range diffs {
			if i == 8 {
				t.Errorf("... %d differences in all", len(diffs))
				break
			}
			t.Errorf("sealed %s", d)
		}
	}

	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("driver/seed=%d", seed), func(t *testing.T) {
			sealed(t, 5, func() {
				sys, err := adept2.Open("wal", adept2.WithVFS(vfs.NewMemFS()), adept2.WithOrg(sim.Org()))
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()
				newDriver(t, sys, seed, false).run(3000)
			})
		})
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("soak/seed=%d", seed), func(t *testing.T) {
			if testing.Short() {
				t.Skip("the soak takes seconds")
			}
			sealed(t, 5, func() {
				cfg := soak.DefaultConfig()
				cfg.Seed = seed
				if _, err := soak.Run(context.Background(), cfg); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
	var mix randomMix
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("random/seed=%d", seed), func(t *testing.T) {
			sealed(t, 8, func() { mix.add(driveRandomToCompletion(t, seed, 8)) })
		})
	}
	t.Logf("random mix: %+v", mix)
	if mix.fails == 0 || mix.adhocs == 0 || mix.undos == 0 || mix.migrations == 0 ||
		mix.iterations == 0 || mix.skipped == 0 {
		t.Errorf("the random mix missed a kind of step: %+v", mix)
	}
}

// randomMix counts what driveRandomToCompletion applied: failed attempts,
// ad-hoc changes, undos, migrations, loop iterations and skipped nodes of
// the finished instances.
type randomMix struct {
	fails, adhocs, undos, migrations, iterations, skipped int
}

func (m *randomMix) add(o randomMix) {
	m.fails += o.fails
	m.adhocs += o.adhocs
	m.undos += o.undos
	m.migrations += o.migrations
	m.iterations += o.iterations
	m.skipped += o.skipped
}

// insertAutoX is the type change of the replay-adaptation fixtures: an
// automatic activity x between a and b.
var insertAutoX = []change.Operation{&change.SerialInsert{
	Node: &model.Node{ID: "x", Name: "X", Type: model.NodeActivity, Auto: true},
	Pred: "a", Succ: "b",
}}

// parentReplaySnapshot is a checkpoint's state (Stage at seq 5) written at
// commit a7fe3d7: an instance of "passed", a → b → c, past a and b (both
// steps stamped), migrated
// by insertAutoX under that tree's replay adaptation (AdaptReplay). Its
// marking holds x completed, and neither its history nor its execution
// index records x. Never regenerate it from the current tree.
var parentReplaySnapshot = filepath.Join("internal", "durable", "testdata", "parent_replay_adapt_snapshot.json")

// TestSealDerivesAVirtuallyFiredNode: an automatic node the new version
// inserted where the instance had passed is fired and recorded by the
// cascade after the migration's state adaptation, and the sealed instance
// derives it completed, as the instance held it. A running instance that
// an older tree's replay adaptation migrated (parentReplaySnapshot) holds
// the node completed with no event: it restores to the parent's bytes, and
// sealed, it derives the node completed by the seal's virtual firing.
func TestSealDerivesAVirtuallyFiredNode(t *testing.T) {
	// sealed completes c, the instance's last step, and requires the seal to
	// derive what the instance held, x completed.
	sealed := func(t *testing.T, e *engine.Engine, id string) {
		t.Helper()
		var diffs []string
		engine.SetSealCheck(func(id, diff string) { diffs = append(diffs, diff) })
		defer engine.SetSealCheck(nil)
		if err := e.CompleteActivity(id, "c", "ann", nil); err != nil {
			t.Fatal(err)
		}
		if len(diffs) != 1 || diffs[0] != "" {
			t.Fatalf("seals %q, want one that derives what it held", diffs)
		}
		if inst, _ := e.Instance(id); inst.NodeState("x") != state.Completed {
			t.Errorf("the sealed instance derives x %s, want completed", inst.NodeState("x"))
		}
	}
	t.Run("incremental-adapt", func(t *testing.T) {
		b := model.NewBuilder("passed")
		s, err := b.Build(b.Seq(
			b.Activity("a", "A", model.WithRole("worker")),
			b.Activity("b", "B", model.WithRole("worker")),
			b.Activity("c", "C", model.WithRole("worker"))))
		if err != nil {
			t.Fatal(err)
		}
		e := engine.New(sim.Org())
		if err := e.Deploy(s); err != nil {
			t.Fatal(err)
		}
		inst, err := e.CreateInstance("passed", 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range []string{"a", "b"} {
			if err := e.CompleteActivity(inst.ID(), node, "ann", nil); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := evolution.NewManager(e).Evolve("passed", insertAutoX, evolution.Options{})
		if err != nil || rep.Count(evolution.Migrated) != 1 {
			t.Fatalf("migration: %v, %+v", err, rep)
		}
		if !slices.ContainsFunc(inst.HistoryEvents(), func(ev *history.Event) bool { return ev.Node == "x" && ev.Kind == history.Completed }) {
			t.Fatal("the cascade after the adaptation did not record x")
		}
		sealed(t, e, inst.ID())
	})
	// The replay-adapted instance is the parent's snapshot of one.
	t.Run("replay-adapt", func(t *testing.T) {
		want, err := os.ReadFile(parentReplaySnapshot)
		if err != nil {
			t.Fatal(err)
		}
		var st durable.SystemState
		if err := json.Unmarshal(want, &st); err != nil {
			t.Fatal(err)
		}
		e := engine.New(sim.Org())
		if err := durable.Restore(e, &st); err != nil {
			t.Fatal(err)
		}
		if got, err := json.Marshal(durable.Stage(e, 5)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("restore + capture differs from the parent's snapshot (%v):\n got %s\nwant %s", err, got, want)
		}
		sealed(t, e, "inst-000001")
	})
}

// The parent-journal fixtures of replay adaptation.
// testdata/parent_replay_adapt.ndjson and parent_default_adapt.ndjson were
// written at commit a7fe3d7, where Evolve's options carried an adaptation
// mode and a worker count: five instances of "passed" (past-b, running-c,
// before-b and started-b on version 1, past and short of b; fresh created
// after the change) and one Evolve of insertAutoX, journaled once with
// that tree's replay adaptation and three workers ("adapt":1,"workers":3)
// and once with the default options. The .summary files are that tree's
// sim.Summary of each. Never regenerate them from the current tree.

// TestParentReplayAdaptJournalRecovers: a parent journal whose evolve
// record asks for replay adaptation recovers here under the one
// adaptation there is, to the state the parent's default journal reached,
// and in every recovered instance each node the marking holds completed
// has its completion in the execution index. The start and end nodes are
// the exceptions: no event records either. At the parent, the replay
// journal's migrated instances hold x completed with no record.
func TestParentReplayAdaptJournalRecovers(t *testing.T) {
	want := readGolden(t, "parent_default_adapt.summary")
	for _, name := range []string{"parent_replay_adapt", "parent_default_adapt"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal")
			if err := os.WriteFile(path, []byte(readGolden(t, name+".ndjson")), 0o644); err != nil {
				t.Fatal(err)
			}
			sys := openRepair(t, path, newTestClock(), nil)
			defer sys.Close()
			if d := sim.Diff(want, sim.Summary(sys)); d != "" {
				t.Errorf("recovers to another state than the parent's default journal:\n%s", d)
			}
			for _, inst := range sys.Instances() {
				snap, _ := inst.Snapshot()
				recorded := map[string]bool{}
				for _, st := range snap.Stats {
					recorded[st.ID] = st.CompleteSeq > 0
				}
				v := inst.View()
				for _, n := range snap.Marking.Nodes {
					if state.NodeState(n.State) == state.Completed && n.ID != v.StartID() && n.ID != v.EndID() && !recorded[n.ID] {
						t.Errorf("%s: the marking holds %s completed, the execution index records no completion", inst.ID(), n.ID)
					}
				}
			}
		})
	}
}

// driveRandomToCompletion deploys a sim.RandomSchema type, creates n
// instances and drives them to their end through a random mix of steps
// (XOR decisions and loop iterations included), failed attempts, ad-hoc
// changes, undos and migrations; refusals are part of the mix.
func driveRandomToCompletion(t *testing.T, seed int64, n int) (mix randomMix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := engine.New(sim.Org())
	s := sim.RandomSchema(rng, "random", sim.DefaultSchemaOpts())
	if err := e.Deploy(s); err != nil {
		t.Fatal(err)
	}
	drv := sim.NewDriver(rng, e)
	drv.LoopAgainProb = 0.4
	mgr := evolution.NewManager(e)
	insts := make([]*engine.Instance, n)
	for i := range insts {
		inst, err := e.CreateInstance("random", 0)
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = inst
	}
	for step := 0; step < 400*n; step++ {
		inst := insts[rng.Intn(n)]
		if inst.Done() {
			continue
		}
		switch r := rng.Intn(100); {
		case r < 8: // a failed attempt of an activated node
			for _, node := range inst.MarkingSnapshot().NodesInState(state.Activated) {
				if v, _ := inst.View().Node(node); v.Role == "" {
					continue
				}
				if e.StartActivityAt(inst.ID(), node, "ann", 0) == nil {
					if err := inst.Mutate(func(mx *engine.Mutable) error { _, err := mx.Fail(node, "ann", "jam"); return err }); err != nil {
						t.Fatal(err)
					}
					mix.fails++
				}
				break
			}
		case r < 14:
			if change.ApplyAdHoc(inst, sim.RandomAdHocOps(rng, inst.View(), step)...) == nil {
				mix.adhocs++
			}
		case r < 17:
			if rollback.UndoLast(inst) == nil {
				mix.undos++
			}
		case r < 19:
			latest, _ := e.Schema("random", e.LatestVersion("random"))
			if rep, err := mgr.Evolve("random", sim.RandomAdHocOps(rng, latest, step), evolution.Options{}); err == nil {
				mix.migrations += rep.Count(evolution.Migrated)
			}
		default:
			if _, err := drv.Step(inst); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, inst := range insts {
		if err := drv.RunToCompletion(inst); err != nil {
			t.Fatal(err)
		}
		for _, ev := range inst.HistoryEvents() {
			if ev.Again {
				mix.iterations++
			}
		}
		mix.skipped += len(inst.MarkingSnapshot().NodesInState(state.Skipped))
	}
	return mix
}

// TestSealedInstanceRefusesEveryMutation: every command that would change
// a finished instance refuses it as completed before it reads the marking
// or the execution index the seal dropped — ad-hoc change, undo, failure,
// timeout, retry, suspend, start and complete — and journals nothing;
// Evolve reports it already finished. The instance is biased, so that an
// undo has something to undo, and is tried sealed live and restored from a
// snapshot.
func TestSealedInstanceRefusesEveryMutation(t *testing.T) {
	ctx := context.Background()
	open := func(fs vfs.FS) *adept2.System {
		sys, err := adept2.Open("wal", adept2.WithVFS(fs), adept2.WithOrg(sim.Org()),
			adept2.WithCheckpointing(adept2.CheckpointConfig{Every: -1}))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	const id = "inst-000001"
	// finished returns a system on fs that holds the instance, finished.
	finished := func(fs vfs.FS) *adept2.System {
		sys := open(fs)
		if _, err := sys.Submit(ctx, &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"}); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Submit(ctx, &adept2.AdHoc{Instance: id, Ops: []adept2.Operation{&adept2.SerialInsert{
			Node: &adept2.Node{ID: "send_brochure", Name: "Send Brochure", Type: adept2.NodeActivity, Role: "sales"},
			Pred: "collect_data", Succ: "confirm_order",
		}}}); err != nil {
			t.Fatal(err)
		}
		steps := append(orderLifecycle[:2:2], struct{ node, user string }{"send_brochure", "ann"})
		for _, step := range append(steps, orderLifecycle[2:]...) {
			var out map[string]any
			if step.node == "get_order" {
				out = map[string]any{"out": "order-1"}
			}
			if _, err := sys.Submit(ctx, &adept2.CompleteActivity{Instance: id, Node: step.node, User: step.user, Outputs: out}); err != nil {
				t.Fatal(err)
			}
		}
		return sys
	}
	refusals := []adept2.Command{
		&adept2.AdHoc{Instance: id, Ops: []adept2.Operation{&adept2.DeleteActivity{ID: "pack_goods"}}},
		&adept2.Undo{Instance: id},
		&adept2.Undo{Instance: id, All: true},
		&adept2.FailActivity{Instance: id, Node: "deliver_goods", User: "bob", Reason: "late"},
		&adept2.TimeoutActivity{Instance: id, Node: "deliver_goods"},
		&adept2.RetryActivity{Instance: id, Node: "deliver_goods"},
		&adept2.Suspend{Instance: id},
		&adept2.StartActivity{Instance: id, Node: "deliver_goods", User: "bob"},
		&adept2.CompleteActivity{Instance: id, Node: "deliver_goods", User: "bob"},
	}
	refuse := func(t *testing.T, sys *adept2.System) {
		inst, ok := sys.Instance(id)
		if !ok || !inst.Done() || !inst.Biased() {
			t.Fatalf("%s: present %t, want a finished, biased instance", id, ok)
		}
		seq := sys.JournalSeq()
		for _, cmd := range refusals {
			_, err := sys.Submit(ctx, cmd)
			var ae *adept2.Error
			if !errors.As(err, &ae) || ae.Code != adept2.CodeCompleted {
				t.Errorf("%s on a finished instance: %v, want it refused as completed", cmd.CommandName(), err)
			}
		}
		if got := sys.JournalSeq(); got != seq {
			t.Errorf("the refusals moved the journal from %d to %d", seq, got)
		}
		res, err := sys.Submit(ctx, &adept2.Evolve{TypeName: "online_order", Ops: sim.OnlineOrderTypeChange()})
		if err != nil {
			t.Fatal(err)
		}
		rep := res.(*adept2.MigrationReport)
		if len(rep.Results) != 1 || rep.Results[0].Outcome != adept2.AlreadyFinished {
			t.Errorf("evolve of a finished instance reports %+v, want it already finished", rep.Results)
		}
		if st := inst.NodeState("deliver_goods"); st != state.Completed {
			t.Errorf("the sealed instance derives deliver_goods %s, want completed", st)
		}
	}
	t.Run("live", func(t *testing.T) {
		sys := finished(vfs.NewMemFS())
		defer sys.Close()
		refuse(t, sys)
	})
	t.Run("snapshot", func(t *testing.T) {
		fs := vfs.NewMemFS()
		sys := finished(fs)
		if _, _, err := sys.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		sys = open(fs)
		defer sys.Close()
		if info := sys.Recovery(); info.FullReplay {
			t.Fatalf("recovery %+v, want the snapshot", info)
		}
		refuse(t, sys)
	})
}
