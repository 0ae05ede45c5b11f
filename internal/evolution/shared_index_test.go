package evolution_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/evolution"
	"adept2/internal/model"
	"adept2/internal/sim"
)

// buildPopulatedEngine creates an engine with a deterministic population of
// online-order instances (biased, conflicting, and plain ones).
func buildPopulatedEngine(t *testing.T, n int) *engine.Engine {
	t.Helper()
	e := engine.New(sim.Org())
	if err := e.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	opts := sim.DefaultPopulationOpts(n)
	opts.BiasedFrac = 0.3
	opts.ConflictingBiasFrac = 0.2
	if _, err := sim.BuildPopulation(e, rng, opts); err != nil {
		t.Fatal(err)
	}
	return e
}

// outcomeCounts summarizes a report as outcome -> count.
func outcomeCounts(r *evolution.Report) map[evolution.Outcome]int {
	c := make(map[evolution.Outcome]int)
	for _, res := range r.Results {
		c[res.Outcome]++
	}
	return c
}

// TestConcurrentMigrationSharedIndex migrates a population on 8 workers
// under both check modes (a migration runs GOMAXPROCS workers, so the test
// sets it). All workers share the target schema's precomputed block
// analysis and topology index; run under -race this asserts the sharing is
// sound, and the per-outcome counts must match a single-worker run
// (GOMAXPROCS 1) of the identically-seeded population.
func TestConcurrentMigrationSharedIndex(t *testing.T) {
	// evolve migrates a fresh population with GOMAXPROCS set to procs, and
	// restores it.
	evolve := func(t *testing.T, procs int, mode evolution.CheckMode) *evolution.Report {
		t.Helper()
		e := buildPopulatedEngine(t, 120)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		report, err := evolution.NewManager(e).Evolve("online_order", sim.OnlineOrderTypeChange(), evolution.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	for _, mode := range []evolution.CheckMode{evolution.FastCheck, evolution.ReplayCheck} {
		t.Run(fmt.Sprintf("mode=%s", mode), func(t *testing.T) {
			serialReport := evolve(t, 1, mode)
			parallelReport := evolve(t, 8, mode)

			if parallelReport.Total() != serialReport.Total() {
				t.Fatalf("totals differ: serial=%d parallel=%d", serialReport.Total(), parallelReport.Total())
			}
			sc, pc := outcomeCounts(serialReport), outcomeCounts(parallelReport)
			for _, o := range evolution.Outcomes() {
				if sc[o] != pc[o] {
					t.Errorf("outcome %s: serial=%d parallel=%d", o, sc[o], pc[o])
				}
			}
			if got := parallelReport.Count(evolution.Migrated); got == 0 {
				t.Fatal("expected at least one migrated instance")
			}
			if got := parallelReport.Count(evolution.Failed); got != 0 {
				t.Fatalf("unexpected failures: %d", got)
			}
		})
	}
}

// TestMigrateAllReusesTargetIndexAcrossVersions runs two consecutive
// evolutions on GOMAXPROCS workers: the second migration starts from a
// deployed version whose cached indexes were already shared by the first —
// the long-lived-cache path a production engine exercises continuously.
func TestMigrateAllReusesTargetIndexAcrossVersions(t *testing.T) {
	e := buildPopulatedEngine(t, 60)
	mgr := evolution.NewManager(e)
	if _, err := mgr.Evolve("online_order", sim.OnlineOrderTypeChange(), evolution.Options{}); err != nil {
		t.Fatal(err)
	}
	second := []change.Operation{&change.SerialInsert{
		Node: &model.Node{ID: "register_delivery", Name: "Register Delivery", Type: model.NodeActivity, Role: "courier", Template: "register_delivery"},
		Pred: "deliver_goods",
		Succ: "end",
	}}
	report, err := mgr.Evolve("online_order", second, evolution.Options{Mode: evolution.ReplayCheck})
	if err != nil {
		t.Fatal(err)
	}
	if report.Count(evolution.Failed) != 0 {
		t.Fatalf("unexpected failures in second evolution: %+v", report.Results)
	}
}
