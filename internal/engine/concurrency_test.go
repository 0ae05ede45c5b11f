package engine_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/evolution"
	"adept2/internal/graph"
	"adept2/internal/model"
	"adept2/internal/rollback"
	"adept2/internal/sim"
	"adept2/internal/state"
)

// TestConcurrentInstanceExecution drives many instances from parallel
// goroutines; per-instance locking must keep every instance consistent.
// Run with -race to exercise the synchronization.
func TestConcurrentInstanceExecution(t *testing.T) {
	e := engine.New(sim.Org())
	if err := e.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatal(err)
	}
	const n = 24
	insts := make([]*engine.Instance, n)
	for i := range insts {
		inst, err := e.CreateInstance("online_order", 0)
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = inst
	}
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i, inst := range insts {
		wg.Add(1)
		go func(i int, inst *engine.Instance) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			d := sim.NewDriver(rng, e)
			if err := d.RunToCompletion(inst); err != nil {
				errs <- fmt.Errorf("instance %d: %w", i, err)
			}
		}(i, inst)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i, inst := range insts {
		if !inst.Done() {
			t.Errorf("instance %d not done", i)
		}
	}
	if e.Worklist().Len() != 0 {
		t.Errorf("worklist not drained: %d items", e.Worklist().Len())
	}
}

// TestConcurrentAdHocChanges applies disjoint ad-hoc changes from parallel
// goroutines, one per instance.
func TestConcurrentAdHocChanges(t *testing.T) {
	e := engine.New(sim.Org())
	if err := e.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		inst, err := e.CreateInstance("online_order", 0)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, inst *engine.Instance) {
			defer wg.Done()
			op := &change.SerialInsert{
				Node: &model.Node{ID: fmt.Sprintf("x%d", i), Type: model.NodeActivity, Role: "sales", Template: "x"},
				Pred: "collect_data",
				Succ: "confirm_order",
			}
			if err := change.ApplyAdHoc(inst, op); err != nil {
				errs <- err
			}
		}(i, inst)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, inst := range e.Instances() {
		if !inst.Biased() {
			t.Error("instance missed its bias")
		}
	}
}

func TestSuspendResume(t *testing.T) {
	e := engine.New(sim.Org())
	if err := e.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Suspend(inst.ID()); err != nil {
		t.Fatal(err)
	}
	if !inst.Suspended() {
		t.Fatal("instance should be suspended")
	}
	if err := e.CompleteActivity(inst.ID(), "get_order", "ann", map[string]any{"out": "o"}); err == nil {
		t.Fatal("user op on suspended instance must fail")
	}
	if err := e.StartActivityAt(inst.ID(), "get_order", "ann", 0); err == nil {
		t.Fatal("start on suspended instance must fail")
	}
	// Ad-hoc changes remain possible while suspended.
	if err := change.ApplyAdHoc(inst, &change.InsertSyncEdge{From: "collect_data", To: "compose_order"}); err != nil {
		t.Fatalf("ad-hoc change while suspended: %v", err)
	}
	if err := e.Resume(inst.ID()); err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "get_order", "ann", map[string]any{"out": "o"}); err != nil {
		t.Fatalf("after resume: %v", err)
	}
	// Error paths.
	if err := e.Resume(inst.ID()); err == nil {
		t.Fatal("resume of non-suspended instance must fail")
	}
	if err := e.Suspend("nope"); err == nil {
		t.Fatal("suspend of unknown instance must fail")
	}
	if err := e.Resume("nope"); err == nil {
		t.Fatal("resume of unknown instance must fail")
	}
}

// TestOnTheFlyInstanceExecutesEndToEnd restores a biased instance from
// snapshots that name each of the representations there once were (0
// hybrid, 1 full copy, 2 on-the-fly): every one restores as the overlay
// its recorded bias builds, with the live view, and runs to completion.
func TestOnTheFlyInstanceExecutesEndToEnd(t *testing.T) {
	src := engine.New(sim.Org())
	if err := src.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatal(err)
	}
	live, err := src.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := change.ApplyAdHoc(live, sim.OnlineOrderBiasI2()...); err != nil {
		t.Fatal(err)
	}
	for strategy := uint8(0); strategy < 3; strategy++ {
		snap, bias := live.Snapshot()
		if snap.Strategy != 0 {
			t.Fatalf("a snapshot writes strategy %d, want 0", snap.Strategy)
		}
		snap.Strategy = strategy
		e := engine.New(sim.Org())
		if err := e.Deploy(sim.OnlineOrder()); err != nil {
			t.Fatal(err)
		}
		if err := e.RestoreInstance(snap, bias); err != nil {
			t.Fatalf("strategy %d: %v", strategy, err)
		}
		inst, _ := e.Instance(live.ID())
		got, want := inst.Footprint(), live.Footprint()
		if !model.Equal(inst.View(), live.View()) || got.BiasBytes != want.BiasBytes || got.ViewBytes != want.ViewBytes {
			t.Fatalf("strategy %d: the restored representation differs from the live one", strategy)
		}
		d := sim.NewDriver(rand.New(rand.NewSource(9)), e)
		if err := d.RunToCompletion(inst); err != nil {
			t.Fatal(err)
		}
		if inst.NodeState("send_brochure") != state.Completed {
			t.Fatalf("strategy %d: the bias activity should have run", strategy)
		}
	}
}

// TestDeployAndEvolveBesideCommands: instances of one type are created and
// driven to their end while new versions of a second type are deployed, a
// third type evolves twice under its population and a reader walks every
// listing. An unbiased instance reads its block analysis through its own
// pointer, not under the engine lock Deploy appends to the registry with;
// run with -race this holds that the pointer is all a command needs.
func TestDeployAndEvolveBesideCommands(t *testing.T) {
	e := engine.New(sim.Org())
	for _, s := range []*model.Schema{sim.OnlineOrder(), sim.LoopProcess()} {
		if err := e.Deploy(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sim.BuildPopulation(e, rand.New(rand.NewSource(7)), sim.DefaultPopulationOpts(60)); err != nil {
		t.Fatal(err)
	}
	const submitters, each, versions = 4, 6, 12
	var work, reads sync.WaitGroup
	errs := make(chan error, submitters+2)
	for w := 0; w < submitters; w++ {
		work.Add(1)
		go func() {
			defer work.Done()
			for i := 0; i < each; i++ {
				inst, err := e.CreateInstance("loopy", 0)
				if err == nil {
					err = sim.DriveLoopIterations(e, inst, 2)
				}
				if err == nil {
					err = e.CompleteActivity(inst.ID(), "finalize", "ann", nil)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	work.Add(2)
	go func() {
		defer work.Done()
		for v := 1; v <= versions; v++ {
			b := model.NewVersionBuilder("spare", v)
			s, err := b.Build(b.Activity("only", "Only", model.WithRole("clerk")))
			if err == nil {
				err = e.Deploy(s)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer work.Done()
		mgr := evolution.NewManager(e)
		second := []change.Operation{&change.SerialInsert{
			Node: &model.Node{ID: "register_delivery", Name: "Register Delivery", Type: model.NodeActivity, Role: "courier", Template: "register_delivery"},
			Pred: "deliver_goods",
			Succ: "end",
		}}
		if _, err := mgr.Evolve("online_order", sim.OnlineOrderTypeChange(), evolution.Options{}); err != nil {
			errs <- err
			return
		}
		if _, err := mgr.Evolve("online_order", second, evolution.Options{Mode: evolution.ReplayCheck}); err != nil {
			errs <- err
		}
	}()
	stop := make(chan struct{})
	reads.Add(1)
	go func() {
		defer reads.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, typ := range e.Types() {
				for _, inst := range e.InstancesOf(typ, e.LatestVersion(typ)) {
					inst.View()
				}
			}
			for cursor := ""; ; {
				page, next := e.InstancesPage(cursor, 16)
				if cursor = next; len(page) == 0 || next == "" {
					break
				}
			}
			e.AllSchemas()
		}
	}()
	work.Wait()
	close(stop)
	reads.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := e.InstancesOf("loopy", -1); len(got) != submitters*each {
		t.Errorf("%d loopy instances, want %d", len(got), submitters*each)
	} else {
		for _, inst := range got {
			if !inst.Done() {
				t.Errorf("%s did not finish", inst.ID())
			}
		}
	}
	if v := e.LatestVersion("spare"); v != versions {
		t.Errorf("spare is at v%d, want v%d", v, versions)
	}
	if v := e.LatestVersion("online_order"); v != 3 {
		t.Errorf("online_order is at v%d after two evolutions", v)
	}
}

// TestUnbiasedInstanceHoldsDeployedAnalysis: the block analysis an unbiased
// instance answers with is the very one Deploy stored for its version — at
// creation, after a restore, once an undo emptied its bias and after a
// migration — and a biased instance answers with one of its own.
func TestUnbiasedInstanceHoldsDeployedAnalysis(t *testing.T) {
	e := engine.New(sim.Org())
	if err := e.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatal(err)
	}
	blocks := func(inst *engine.Instance) (info *graph.Info) {
		t.Helper()
		if err := inst.Mutate(func(mx *engine.Mutable) (err error) {
			info, err = mx.Blocks()
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return info
	}
	deployed := func(version int) *graph.Info {
		t.Helper()
		d, ok := e.Deployed("online_order", version)
		if !ok || d.Blocks == nil || d.Schema.Version() != version {
			t.Fatalf("Deployed(online_order, %d) = %+v, %t", version, d, ok)
		}
		return d.Blocks
	}
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if blocks(inst) != deployed(1) {
		t.Fatal("a new instance does not hold its version's analysis")
	}
	if err := change.ApplyAdHoc(inst, sim.OnlineOrderBiasI2()...); err != nil {
		t.Fatal(err)
	}
	if got := blocks(inst); got == nil || got == deployed(1) {
		t.Fatal("a biased instance must hold an analysis of its own view")
	}
	if err := rollback.UndoAll(inst); err != nil {
		t.Fatal(err)
	}
	if inst.Biased() || blocks(inst) != deployed(1) {
		t.Fatal("an undo that emptied the bias did not give the version's analysis back")
	}
	snap, bias := inst.Snapshot()
	restored := engine.New(sim.Org())
	if err := restored.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreInstance(snap, bias); err != nil {
		t.Fatal(err)
	}
	if d, _ := restored.Deployed("online_order", 1); blocks(restored.Instances()[0]) != d.Blocks {
		t.Fatal("a restored instance does not hold its version's analysis")
	}
	if _, err := evolution.NewManager(e).Evolve("online_order", sim.OnlineOrderTypeChange(), evolution.Options{}); err != nil {
		t.Fatal(err)
	}
	if inst.Version() != 2 || blocks(inst) != deployed(2) {
		t.Fatalf("after migrating to v%d the instance does not hold that version's analysis", inst.Version())
	}
	if _, ok := e.Deployed("online_order", 0); ok {
		t.Fatal("Deployed(type, 0) is no version")
	}
}
