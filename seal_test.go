package adept2_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"adept2"
	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/evolution"
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
// loops and XOR skips with failures, ad-hoc changes, undo and migration in
// both adaptation modes. No seal may differ.
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
	if mix.fails == 0 || mix.adhocs == 0 || mix.undos == 0 || mix.migrations == 0 || mix.replayMigrations == 0 ||
		mix.iterations == 0 || mix.skipped == 0 {
		t.Errorf("the random mix missed a kind of step: %+v", mix)
	}
}

// randomMix counts what driveRandomToCompletion applied: failed attempts,
// ad-hoc changes, undos, migrations (and of them by replay adaptation),
// loop iterations and skipped nodes of the finished instances.
type randomMix struct {
	fails, adhocs, undos, migrations, replayMigrations, iterations, skipped int
}

func (m *randomMix) add(o randomMix) {
	m.fails += o.fails
	m.adhocs += o.adhocs
	m.undos += o.undos
	m.migrations += o.migrations
	m.replayMigrations += o.replayMigrations
	m.iterations += o.iterations
	m.skipped += o.skipped
}

// TestSealDerivesAVirtuallyFiredNode: a migration that adapts the state by
// replay (AdaptReplay) fires an automatic node the new version inserted
// where the instance had passed without recording it; the cascade after an
// incremental adaptation fires and records it. The sealed instance derives
// it completed either way, as the instance held it.
func TestSealDerivesAVirtuallyFiredNode(t *testing.T) {
	for _, adapt := range []evolution.AdaptMode{evolution.AdaptIncremental, evolution.AdaptReplay} {
		t.Run(adapt.String(), func(t *testing.T) {
			var diffs []string
			engine.SetSealCheck(func(id, diff string) { diffs = append(diffs, diff) })
			defer engine.SetSealCheck(nil)
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
			rep, err := evolution.NewManager(e).Evolve("passed", []change.Operation{&change.SerialInsert{
				Node: &model.Node{ID: "x", Name: "X", Type: model.NodeActivity, Auto: true},
				Pred: "a", Succ: "b",
			}}, evolution.Options{Adapt: adapt})
			if err != nil || rep.Count(evolution.Migrated) != 1 {
				t.Fatalf("migration: %v, %+v", err, rep)
			}
			if err := e.CompleteActivity(inst.ID(), "c", "ann", nil); err != nil {
				t.Fatal(err)
			}
			if len(diffs) != 1 || diffs[0] != "" {
				t.Fatalf("seals %q, want one that derives what it held", diffs)
			}
			if st := inst.NodeState("x"); st != state.Completed {
				t.Errorf("the sealed instance derives x %s, want completed", st)
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
			adapt := evolution.AdaptIncremental
			if rng.Intn(2) == 0 {
				adapt = evolution.AdaptReplay
			}
			if rep, err := mgr.Evolve("random", sim.RandomAdHocOps(rng, latest, step), evolution.Options{Adapt: adapt}); err == nil {
				mix.migrations += rep.Count(evolution.Migrated)
				if adapt == evolution.AdaptReplay {
					mix.replayMigrations += rep.Count(evolution.Migrated)
				}
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
