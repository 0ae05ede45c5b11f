package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/state"
	"adept2/internal/verify"
)

func TestOnlineOrderSchemaVerifies(t *testing.T) {
	if err := verify.Err(OnlineOrder()); err != nil {
		t.Fatalf("online order schema: %v", err)
	}
	s := OnlineOrder()
	for _, op := range OnlineOrderTypeChange() {
		if err := op.ApplyTo(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := verify.Err(s); err != nil {
		t.Fatalf("online order V2: %v", err)
	}
}

func TestBiasI2ConflictsWithTypeChange(t *testing.T) {
	// ΔT and ΔI together must produce the deadlock cycle of Fig. 1.
	s := OnlineOrder()
	for _, op := range OnlineOrderBiasI2() {
		if err := op.ApplyTo(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := verify.Err(s); err != nil {
		t.Fatalf("bias alone must verify: %v", err)
	}
	for _, op := range OnlineOrderTypeChange() {
		if err := op.ApplyTo(s); err != nil {
			t.Fatal(err)
		}
	}
	if res := verify.Check(s); res.OK() {
		t.Fatal("ΔT + ΔI must create a deadlock cycle")
	}
}

// TestRandomSchemasAlwaysVerify is the quick-based generator invariant:
// every generated schema passes the full buildtime check suite.
func TestRandomSchemasAlwaysVerify(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := RandomSchema(rng, "q", DefaultSchemaOpts())
		return verify.Check(s).OK()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomSchemaDeterminism: equal seeds produce equal schemas.
func TestRandomSchemaDeterminism(t *testing.T) {
	a := RandomSchema(rand.New(rand.NewSource(5)), "d", DefaultSchemaOpts())
	b := RandomSchema(rand.New(rand.NewSource(5)), "d", DefaultSchemaOpts())
	if len(a.NodeIDs()) != len(b.NodeIDs()) || len(a.Edges()) != len(b.Edges()) {
		t.Fatal("generator is not deterministic")
	}
}

// TestDriverCompletesRandomSchemas: the random driver always brings random
// schemas to completion (no deadlocks, no stuck states) — an end-to-end
// soundness property of schema generation + engine semantics.
func TestDriverCompletesRandomSchemas(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(int64(i) + 100))
		name := fmt.Sprintf("run%d", i)
		s := RandomSchema(rng, name, DefaultSchemaOpts())
		e := engine.New(Org())
		if err := e.Deploy(s); err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		inst, err := e.CreateInstance(name, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		d := NewDriver(rng, e)
		if err := d.RunToCompletion(inst); err != nil {
			t.Fatalf("trial %d (%d nodes): %v", i, len(s.Nodes()), err)
		}
		if !inst.Done() {
			t.Fatalf("trial %d: not done", i)
		}
	}
}

func TestAdvanceHelpers(t *testing.T) {
	e := engine.New(Org())
	if err := e.Deploy(OnlineOrder()); err != nil {
		t.Fatal(err)
	}
	i1, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := AdvanceOnlineOrderToI1(e, i1); err != nil {
		t.Fatal(err)
	}
	if i1.NodeState("confirm_order") != state.Activated || i1.NodeState("pack_goods") != state.Activated {
		t.Fatal("I1 state wrong")
	}
	i3, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := AdvanceOnlineOrderToI3(e, i3); err != nil {
		t.Fatal(err)
	}
	if i3.NodeState("pack_goods") != state.Completed {
		t.Fatal("I3 state wrong")
	}
}

func TestBuildPopulationShape(t *testing.T) {
	e := engine.New(Org())
	if err := e.Deploy(OnlineOrder()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	insts, err := BuildPopulation(e, rng, DefaultPopulationOpts(300))
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 300 {
		t.Fatalf("population = %d", len(insts))
	}
	var biased, late int
	for _, inst := range insts {
		if inst.Biased() {
			biased++
		}
		if inst.NodeState("pack_goods") == state.Completed {
			late++
		}
	}
	if biased == 0 {
		t.Fatal("population has no biased instances")
	}
	if late == 0 {
		t.Fatal("population has no late instances")
	}
}

func TestLoopProcessDriving(t *testing.T) {
	e := engine.New(Org())
	if err := e.Deploy(LoopProcess()); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("loopy", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := DriveLoopIterations(e, inst, 3); err != nil {
		t.Fatal(err)
	}
	// 4 passes (3 iterations + exit) * 10 events (loop-start gateway,
	// three activities, loop end — start+complete each) = 40 events.
	if got := len(inst.HistoryEvents()); got != 40 {
		t.Fatalf("history = %d events", got)
	}
	if inst.NodeState("finalize") != state.Activated {
		t.Fatal("finalize should be enabled after loop exit")
	}
	// The measured change is compliant on such an instance.
	ops := LoopProcessTypeChange()
	if len(ops) == 0 {
		t.Fatal("no ops")
	}
	if err := change.ApplyAdHoc(inst, ops...); err != nil {
		t.Fatalf("type change ops should apply ad hoc too: %v", err)
	}
}

func TestRandomAdHocOpsShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := OnlineOrder()
	kinds := map[string]bool{}
	for i := 0; i < 200; i++ {
		ops := RandomAdHocOps(rng, s, i)
		if len(ops) == 0 {
			t.Fatal("no ops proposed")
		}
		kinds[ops[0].OpName()] = true
	}
	for _, want := range []string{"serial-insert", "parallel-insert", "delete-activity", "insert-sync-edge", "move-activity"} {
		if !kinds[want] {
			t.Errorf("op kind %q never proposed", want)
		}
	}
}
