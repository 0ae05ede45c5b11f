package evolution_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"adept2/internal/change"
	"adept2/internal/compliance"
	"adept2/internal/engine"
	"adept2/internal/evolution"
	"adept2/internal/graph"
	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/sim"
	"adept2/internal/state"
	"adept2/internal/storage"
)

func newEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(sim.Org())
	if err := e.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatalf("deploy: %v", err)
	}
	return e
}

// setupFig1 creates the three instances of the paper's Fig. 1/Fig. 3
// scenario: I1 (compliant), I2 (ad-hoc modified, structural conflict), and
// I3 (state conflict).
func setupFig1(t *testing.T, e *engine.Engine) (i1, i2, i3 *engine.Instance) {
	t.Helper()
	var err error
	i1, err = e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AdvanceOnlineOrderToI1(e, i1); err != nil {
		t.Fatal(err)
	}

	i2, err = e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(i2.ID(), "get_order", "ann", map[string]any{"out": "o2"}); err != nil {
		t.Fatal(err)
	}
	if err := change.ApplyAdHoc(i2, sim.OnlineOrderBiasI2()...); err != nil {
		t.Fatalf("bias I2: %v", err)
	}

	i3, err = e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AdvanceOnlineOrderToI3(e, i3); err != nil {
		t.Fatal(err)
	}
	return i1, i2, i3
}

func resultOf(r *evolution.Report, inst string) evolution.InstanceResult {
	for _, res := range r.Results {
		if res.Instance == inst {
			return res
		}
	}
	return evolution.InstanceResult{Outcome: evolution.Failed, Detail: "not in report"}
}

// TestFig3MigrationScenario reproduces the demo of the paper (Fig. 3): the
// type change migrates I1 to version 2, leaves I2 on version 1 with a
// structural conflict, and leaves I3 on version 1 with a state conflict.
func TestFig3MigrationScenario(t *testing.T) {
	for _, mode := range []evolution.CheckMode{evolution.FastCheck, evolution.ReplayCheck} {
		t.Run(mode.String(), func(t *testing.T) {
			e := newEngine(t)
			i1, i2, i3 := setupFig1(t, e)
			mgr := evolution.NewManager(e)
			report, err := mgr.Evolve("online_order", sim.OnlineOrderTypeChange(), evolution.Options{Mode: mode})
			if err != nil {
				t.Fatalf("evolve: %v", err)
			}
			if report.FromVersion != 1 || report.ToVersion != 2 || report.Total() != 3 {
				t.Fatalf("report metadata: %+v", report)
			}
			if got := resultOf(report, i1.ID()); got.Outcome != evolution.Migrated {
				t.Fatalf("I1 = %s (%s), want migrated", got.Outcome, got.Detail)
			}
			if got := resultOf(report, i2.ID()); got.Outcome != evolution.StructuralConflict {
				t.Fatalf("I2 = %s (%s), want structural conflict", got.Outcome, got.Detail)
			} else if !strings.Contains(got.Detail, "deadlock") {
				t.Fatalf("I2 detail should mention the deadlock cycle: %s", got.Detail)
			}
			if got := resultOf(report, i3.ID()); got.Outcome != evolution.StateConflict {
				t.Fatalf("I3 = %s (%s), want state conflict", got.Outcome, got.Detail)
			}

			// Versions after migration (Fig. 3): I1 on V2, I2/I3 on V1.
			if i1.Version() != 2 || i2.Version() != 1 || i3.Version() != 1 {
				t.Fatalf("versions: I1=%d I2=%d I3=%d", i1.Version(), i2.Version(), i3.Version())
			}
			if i1.Migrations() != 1 {
				t.Fatal("I1 migration count")
			}

			// I1's adapted state matches Fig. 1: send_questions activated,
			// confirm_order and pack_goods waiting.
			if got := i1.NodeState("send_questions"); got != state.Activated {
				t.Fatalf("send_questions = %s", got)
			}
			if got := i1.NodeState("confirm_order"); got != state.NotActivated {
				t.Fatalf("confirm_order = %s", got)
			}
			if got := i1.NodeState("pack_goods"); got != state.NotActivated {
				t.Fatalf("pack_goods = %s", got)
			}

			// All three instances still run to completion on their
			// respective versions.
			finishI1(t, e, i1)
			finishI2(t, e, i2)
			if err := e.CompleteActivity(i3.ID(), "confirm_order", "ann", nil); err != nil {
				t.Fatal(err)
			}
			if err := e.CompleteActivity(i3.ID(), "deliver_goods", "bob", nil); err != nil {
				t.Fatal(err)
			}
			if !i1.Done() || !i2.Done() || !i3.Done() {
				t.Fatal("all instances should complete")
			}
		})
	}
}

func finishI1(t *testing.T, e *engine.Engine, i1 *engine.Instance) {
	t.Helper()
	for _, step := range []struct {
		node, user string
	}{
		{"send_questions", "ann"}, // sales
		{"confirm_order", "ann"},
		{"pack_goods", "bob"},
		{"deliver_goods", "bob"},
	} {
		if err := e.CompleteActivity(i1.ID(), step.node, step.user, nil); err != nil {
			t.Fatalf("finish I1 at %s: %v", step.node, err)
		}
	}
}

func finishI2(t *testing.T, e *engine.Engine, i2 *engine.Instance) {
	t.Helper()
	for _, step := range []struct {
		node, user string
	}{
		{"collect_data", "ann"},
		{"send_brochure", "ann"},
		{"confirm_order", "ann"},
		{"compose_order", "bob"},
		{"pack_goods", "bob"},
		{"deliver_goods", "bob"},
	} {
		if err := e.CompleteActivity(i2.ID(), step.node, step.user, nil); err != nil {
			t.Fatalf("finish I2 at %s: %v", step.node, err)
		}
	}
}

func TestEvolveRejectsBrokenTypeChange(t *testing.T) {
	e := newEngine(t)
	mgr := evolution.NewManager(e)
	// Deleting the order writer breaks the data flow of every reader.
	_, err := mgr.Evolve("online_order", []change.Operation{&change.DeleteActivity{ID: "get_order"}}, evolution.Options{})
	if err == nil {
		t.Fatal("type change breaking verification must be rejected")
	}
	if _, err := mgr.Evolve("nope", nil, evolution.Options{}); err == nil {
		t.Fatal("unknown type must fail")
	}
	// Nothing was deployed.
	if e.LatestVersion("online_order") != 1 {
		t.Fatal("failed evolution must not deploy")
	}
}

func TestMigrationOfFinishedAndBiasedCompliantInstances(t *testing.T) {
	e := newEngine(t)
	// A finished instance.
	done, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	driver := sim.NewDriver(rng, e)
	if err := driver.RunToCompletion(done); err != nil {
		t.Fatal(err)
	}
	// A biased instance whose bias is disjoint from ΔT: sync edge
	// collect_data ~> compose_order (no cycle with ΔT).
	biased, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := change.ApplyAdHoc(biased, &change.InsertSyncEdge{From: "collect_data", To: "compose_order"}); err != nil {
		t.Fatal(err)
	}

	mgr := evolution.NewManager(e)
	report, err := mgr.Evolve("online_order", sim.OnlineOrderTypeChange(), evolution.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := resultOf(report, done.ID()); got.Outcome != evolution.AlreadyFinished {
		t.Fatalf("finished instance = %s", got.Outcome)
	}
	if got := resultOf(report, biased.ID()); got.Outcome != evolution.Migrated {
		t.Fatalf("disjoint-bias instance = %s (%s)", got.Outcome, got.Detail)
	}
	if biased.Version() != 2 || !biased.Biased() {
		t.Fatal("bias must survive migration to the new version")
	}
	// The rebased view contains both ΔT and the bias.
	v := biased.View()
	if _, ok := v.Node("send_questions"); !ok {
		t.Fatal("ΔT missing after migration")
	}
	if !v.HasEdge(model.EdgeKey{From: "collect_data", To: "compose_order", Type: model.EdgeSync}) {
		t.Fatal("bias missing after migration")
	}
	// And the instance still completes.
	if err := driver.RunToCompletion(biased); err != nil {
		t.Fatalf("biased migrated instance stuck: %v", err)
	}
}

func TestSemanticConflictDetection(t *testing.T) {
	e := newEngine(t)
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The user already inserted send_questions ad hoc (same template as
	// ΔT, different position).
	adHoc := &change.SerialInsert{
		Node: &model.Node{ID: "sq_adhoc", Name: "Send Questions", Type: model.NodeActivity, Role: "sales", Template: "send_questions"},
		Pred: "collect_data",
		Succ: "confirm_order",
	}
	if err := change.ApplyAdHoc(inst, adHoc); err != nil {
		t.Fatal(err)
	}
	mgr := evolution.NewManager(e)
	report, err := mgr.Evolve("online_order", sim.OnlineOrderTypeChange(), evolution.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := resultOf(report, inst.ID()); got.Outcome != evolution.SemanticConflict {
		t.Fatalf("expected semantic conflict, got %s (%s)", got.Outcome, got.Detail)
	}
	if inst.Version() != 1 {
		t.Fatal("semantic conflict must keep the instance on V1")
	}
}

// TestAdaptModesAgree: a migration adapts an instance's state one way,
// incrementally (state.Adapt, then the engine's cascade over the automatic
// nodes it enabled, which records each firing). Replay adaptation is kept
// here as the reference: compliance.Replayer replays the instance's reduced
// history from before the migration on its new view, firing virtually an
// automatic node the change inserted where the instance had passed, and
// the reference then fires the automatic nodes its marking activates as
// the cascade does (an XOR split with the decision the instance recorded).
// Fig. 1's I1 gets the paper's adapted state, and over random populations
// — sim.RandomSchema types driven through XOR decisions, loop iterations
// and ad-hoc biases, evolved by random changes whose serial inserts are
// half of them automatic — each migrated instance's node states equal the
// reference's. Two classes need the reference's own handling:
//   - the automatic nodes the adaptation enables, and what they enable in
//     turn: replay leaves them activated, and the reference fires them as
//     the engine's cascade does;
//   - an automatic activity whose recorded firing sits after a node it
//     precedes, where an earlier migration's cascade fired it: replay
//     refuses a history that starts a node it has not activated, so the
//     reference leaves automatic activities' events out and fires them
//     virtually, as replay adaptation did.
//
// An instance whose history replay refuses on its new view even so has no
// reference and is counted as refused: the fast check migrated an instance
// the replay check would have kept back. Seed 7 has one: an earlier change
// moved a node out of a loop whose iteration had purged its executions,
// and the history reduced on the moved view keeps them.
func TestAdaptModesAgree(t *testing.T) {
	var (
		rp       compliance.Replayer
		compared int
		virtual  int
		refused  int
	)
	// check compares inst, migrated, with the reference for the first n
	// events of its history, those it had before the migration, reduced on
	// blocks, the analysis of the view they were recorded on.
	check := func(t *testing.T, inst *engine.Instance, n int, blocks *graph.Info) {
		t.Helper()
		view, all := inst.View(), inst.HistoryEvents()
		var events []*history.Event
		decision := map[string]int{}
		for i, ev := range all {
			if ev.Kind == history.Completed {
				decision[ev.Node] = int(ev.Decision)
			}
			if nd, ok := view.Node(ev.Node); i < n && (!ok || nd.Type != model.NodeActivity || !nd.Auto) {
				events = append(events, ev)
			}
		}
		var target *graph.Info
		_ = inst.Mutate(func(mx *engine.Mutable) error { target, _ = mx.Blocks(); return nil })
		rr, err := rp.Replay(view, target, history.ReduceInPlace(blocks, events))
		if err != nil {
			// The replay check would have kept this instance back: see
			// refused below.
			t.Logf("%s v%d: no replay reference, the history refuses: %v", inst.ID(), inst.Version(), err)
			refused++
			return
		}
		virtual += rr.VirtualFirings
		topo, ref := view.Topology(), rr.Marking
		for {
			state.Evaluate(view, ref)
			if end := topo.EndIdx(); ref.NodeAt(end) == state.Activated {
				ref.SetNodeAt(end, state.Completed)
				break
			}
			next := model.InvalidNode
			for _, ni := range topo.AutoExecutableIdx() {
				if ref.NodeAt(ni) == state.Activated {
					next = ni
					break
				}
			}
			if next == model.InvalidNode {
				break
			}
			d, ok := decision[topo.ID(next)]
			if !ok || topo.At(next).Node().Type != model.NodeXORSplit {
				d = -1
			}
			if err := ref.StartAt(next); err != nil {
				t.Fatal(err)
			}
			if err := ref.CompleteAt(next, d); err != nil {
				t.Fatal(err)
			}
		}
		got := inst.MarkingSnapshot()
		for _, id := range view.NodeIDs() {
			if got.Node(id) != ref.Node(id) {
				t.Errorf("%s v%d: %s is %s, the replay reference gives %s", inst.ID(), inst.Version(), id, got.Node(id), ref.Node(id))
			}
		}
		compared++
	}
	// evolve evolves the type and checks every instance it migrated.
	evolve := func(t *testing.T, e *engine.Engine, typeName string, ops []change.Operation) (*evolution.Report, error) {
		t.Helper()
		type past struct {
			n      int
			blocks *graph.Info
		}
		before := map[string]past{}
		for _, inst := range e.InstancesOf(typeName, e.LatestVersion(typeName)) {
			_ = inst.Mutate(func(mx *engine.Mutable) error {
				blocks, _ := mx.Blocks()
				before[inst.ID()] = past{mx.History().Len(), blocks}
				return nil
			})
		}
		rep, err := evolution.NewManager(e).Evolve(typeName, ops, evolution.Options{})
		if err != nil {
			return nil, err
		}
		for _, res := range rep.Results {
			if res.Outcome == evolution.Migrated {
				inst, _ := e.Instance(res.Instance)
				check(t, inst, before[res.Instance].n, before[res.Instance].blocks)
			}
		}
		return rep, nil
	}

	// Fig. 1's I1.
	t.Run("incremental-adapt", func(t *testing.T) {
		e := newEngine(t)
		inst, err := e.CreateInstance("online_order", 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.AdvanceOnlineOrderToI1(e, inst); err != nil {
			t.Fatal(err)
		}
		report, err := evolve(t, e, "online_order", sim.OnlineOrderTypeChange())
		if err != nil {
			t.Fatal(err)
		}
		if got := resultOf(report, inst.ID()); got.Outcome != evolution.Migrated {
			t.Fatalf("outcome = %s (%s)", got.Outcome, got.Detail)
		}
		if inst.NodeState("send_questions") != state.Activated ||
			inst.NodeState("confirm_order") != state.NotActivated ||
			inst.NodeState("pack_goods") != state.NotActivated {
			t.Fatal("adapted state wrong")
		}
	})
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("random/seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			e := engine.New(sim.Org())
			if err := e.Deploy(sim.RandomSchema(rng, "random", sim.DefaultSchemaOpts())); err != nil {
				t.Fatal(err)
			}
			drv := sim.NewDriver(rng, e)
			drv.LoopAgainProb = 0.4
			var insts []*engine.Instance
			for i := 0; i < 12; i++ {
				inst, err := e.CreateInstance("random", 0)
				if err != nil {
					t.Fatal(err)
				}
				if err := drv.Advance(inst, rng.Intn(14)); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(4) == 0 {
					_ = change.ApplyAdHoc(inst, sim.RandomAdHocOps(rng, inst.View(), i)...)
				}
				insts = append(insts, inst)
			}
			for round := 0; round < 4; round++ {
				latest, _ := e.Schema("random", e.LatestVersion("random"))
				ops := sim.RandomAdHocOps(rng, latest, 100+round)
				for _, op := range ops {
					if ins, ok := op.(*change.SerialInsert); ok && rng.Intn(2) == 0 {
						ins.Node.Auto, ins.Node.Role = true, ""
					}
				}
				_, _ = evolve(t, e, "random", ops)
				for _, inst := range insts {
					if err := drv.Advance(inst, rng.Intn(4)); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
	t.Logf("%d migrated instances compared, %d virtual firings, %d without a reference", compared, virtual, refused)
	if compared < 200 || virtual == 0 {
		t.Errorf("%d migrated instances compared with %d virtual firings, want at least 200 and one", compared, virtual)
	}
}

func TestSequentialEvolutions(t *testing.T) {
	// Two evolutions in a row: V1 -> V2 -> V3; the instance follows both.
	e := newEngine(t)
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	mgr := evolution.NewManager(e)
	if _, err := mgr.Evolve("online_order", sim.OnlineOrderTypeChange(), evolution.Options{}); err != nil {
		t.Fatal(err)
	}
	second := []change.Operation{&change.InsertSyncEdge{From: "collect_data", To: "compose_order"}}
	report, err := mgr.Evolve("online_order", second, evolution.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := resultOf(report, inst.ID()); got.Outcome != evolution.Migrated {
		t.Fatalf("second migration = %s (%s)", got.Outcome, got.Detail)
	}
	if inst.Version() != 3 || inst.Migrations() != 2 {
		t.Fatalf("version=%d migrations=%d", inst.Version(), inst.Migrations())
	}
	if e.LatestVersion("online_order") != 3 {
		t.Fatal("latest version")
	}
}

// TestBulkMigrationAcrossStrategies migrates a population with a bias mix
// on GOMAXPROCS workers, and builds the three representations of Fig. 2
// of every migrated biased instance from its delta over the new version —
// the overlay it holds, a full copy of that view, and its recorded ops
// re-applied to the version — each equal to the bias applied to a plain
// copy of the version.
func TestBulkMigrationAcrossStrategies(t *testing.T) {
	e := newEngine(t)
	const n = 40
	var wantMigratable int
	biases := make(map[*engine.Instance][]change.Operation)
	for i := 0; i < n; i++ {
		inst, err := e.CreateInstance("online_order", 0)
		if err != nil {
			t.Fatal(err)
		}
		var bias []change.Operation
		switch i % 4 {
		case 0: // fresh, with a bias the type change does not touch
			bias = []change.Operation{&change.SerialInsert{
				Node: &model.Node{ID: fmt.Sprintf("quality_check_%d", i), Type: model.NodeActivity, Role: "warehouse", Template: "quality_check"},
				Pred: "get_order", Succ: "and-split_1",
			}}
			wantMigratable++
		case 1: // advanced to I1
			if err := sim.AdvanceOnlineOrderToI1(e, inst); err != nil {
				t.Fatal(err)
			}
			wantMigratable++
		case 2: // state conflict
			if err := sim.AdvanceOnlineOrderToI3(e, inst); err != nil {
				t.Fatal(err)
			}
		case 3: // biased with the conflicting I2 bias
			bias = sim.OnlineOrderBiasI2()
		}
		if bias != nil {
			if err := change.ApplyAdHoc(inst, bias...); err != nil {
				t.Fatal(err)
			}
			biases[inst] = bias
		}
	}
	mgr := evolution.NewManager(e)
	report, err := mgr.Evolve("online_order", sim.OnlineOrderTypeChange(), evolution.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := report.Count(evolution.Migrated); got != wantMigratable {
		t.Fatalf("migrated = %d, want %d (report: %+v)", got, wantMigratable, summarize(report))
	}
	if got := report.Count(evolution.StateConflict); got != n/4 {
		t.Fatalf("state conflicts = %d, want %d", got, n/4)
	}
	if got := report.Count(evolution.StructuralConflict); got != n/4 {
		t.Fatalf("structural conflicts = %d, want %d", got, n/4)
	}
	if report.Count(evolution.Failed) != 0 {
		t.Fatalf("failures: %v", summarize(report))
	}
	v2, _ := e.Schema("online_order", 2)
	for _, c := range []struct {
		name string
		view func(inst *engine.Instance) (model.SchemaView, error)
	}{
		{"hybrid", func(inst *engine.Instance) (model.SchemaView, error) { return inst.View(), nil }},
		{"full-copy", func(inst *engine.Instance) (model.SchemaView, error) {
			v := inst.View()
			return storage.Materialize(v, v.SchemaID(), v.TypeName(), v.Version())
		}},
		{"on-the-fly", func(inst *engine.Instance) (model.SchemaView, error) {
			s := v2.Clone()
			for _, op := range inst.BiasOps() {
				if err := op.ApplyTo(s); err != nil {
					return nil, err
				}
			}
			return s, nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			checked := 0
			for inst, bias := range biases {
				if inst.Version() != 2 {
					continue
				}
				ref := v2.Clone()
				for _, op := range bias {
					if err := op.ApplyTo(ref); err != nil {
						t.Fatal(err)
					}
				}
				v, err := c.view(inst)
				if err != nil {
					t.Fatal(err)
				}
				if !model.Equal(ref, v) {
					t.Fatalf("%s: %s view differs from its bias applied to v2", inst.ID(), c.name)
				}
				checked++
			}
			if checked != n/4 {
				t.Fatalf("checked %d migrated biased instances, want %d", checked, n/4)
			}
		})
	}
}

func summarize(r *evolution.Report) string {
	var b strings.Builder
	for _, o := range evolution.Outcomes() {
		fmt.Fprintf(&b, "%s=%d ", o, r.Count(o))
	}
	return b.String()
}

func TestOutcomeAndModeStrings(t *testing.T) {
	if evolution.Migrated.String() != "migrated" || evolution.StructuralConflict.String() != "structural-conflict" {
		t.Fatal("outcome strings")
	}
	if evolution.Outcome(99).String() == "" {
		t.Fatal("out-of-range outcome")
	}
	if evolution.FastCheck.String() != "fast" || evolution.ReplayCheck.String() != "replay" {
		t.Fatal("mode strings")
	}
	if len(evolution.Outcomes()) != 6 {
		t.Fatal("outcomes enumeration")
	}
}
