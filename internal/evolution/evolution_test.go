package evolution_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/evolution"
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

func TestAdaptModesAgree(t *testing.T) {
	for _, adapt := range []evolution.AdaptMode{evolution.AdaptIncremental, evolution.AdaptReplay} {
		t.Run(adapt.String(), func(t *testing.T) {
			e := newEngine(t)
			inst, err := e.CreateInstance("online_order", 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.AdvanceOnlineOrderToI1(e, inst); err != nil {
				t.Fatal(err)
			}
			mgr := evolution.NewManager(e)
			report, err := mgr.Evolve("online_order", sim.OnlineOrderTypeChange(), evolution.Options{Adapt: adapt})
			if err != nil {
				t.Fatal(err)
			}
			if got := resultOf(report, inst.ID()); got.Outcome != evolution.Migrated {
				t.Fatalf("outcome = %s (%s)", got.Outcome, got.Detail)
			}
			if inst.NodeState("send_questions") != state.Activated ||
				inst.NodeState("confirm_order") != state.NotActivated ||
				inst.NodeState("pack_goods") != state.NotActivated {
				t.Fatalf("adapted state wrong under %s", adapt)
			}
		})
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
// with parallel workers, and builds the three representations of Fig. 2
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
	report, err := mgr.Evolve("online_order", sim.OnlineOrderTypeChange(), evolution.Options{Workers: 4})
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
	if evolution.AdaptIncremental.String() != "incremental-adapt" || evolution.AdaptReplay.String() != "replay-adapt" {
		t.Fatal("adapt strings")
	}
	if len(evolution.Outcomes()) != 6 {
		t.Fatal("outcomes enumeration")
	}
}
