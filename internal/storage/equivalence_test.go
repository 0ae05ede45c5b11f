package storage_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/graph"
	"adept2/internal/model"
	"adept2/internal/sim"
	"adept2/internal/storage"
)

// fig2Views builds the three representations of Fig. 2 from one biased
// instance's delta: the overlay the instance holds (hybrid), a standalone
// copy of that view (full copy), and the recorded ops re-applied to the
// base schema, as an on-the-fly representation does on every access.
func fig2Views(t *testing.T, e *engine.Engine, inst *engine.Instance) map[string]model.SchemaView {
	t.Helper()
	hybrid := inst.View()
	full, err := storage.Materialize(hybrid, hybrid.SchemaID(), hybrid.TypeName(), hybrid.Version())
	if err != nil {
		t.Fatal(err)
	}
	base, _ := e.Schema(inst.TypeName(), inst.Version())
	onTheFly := base.Clone()
	for _, op := range inst.BiasOps() {
		if err := op.ApplyTo(onTheFly); err != nil {
			t.Fatalf("re-apply %s: %v", op, err)
		}
	}
	return map[string]model.SchemaView{"hybrid": hybrid, "full-copy": full, "on-the-fly": onTheFly}
}

// blockShape renders a block analysis as sorted split/join/branch lines.
func blockShape(info *graph.Info) []string {
	var out []string
	for _, b := range info.Blocks() {
		for i, br := range b.Branches {
			ids := make([]string, 0, br.Count())
			for n := br.Next(0); n >= 0; n = br.Next(n + 1) {
				ids = append(ids, info.Topology().ID(model.NodeIdx(n)))
			}
			slices.Sort(ids)
			out = append(out, fmt.Sprintf("%s..%s#%d%v", b.Split, b.Join, i, ids))
		}
		if len(b.Branches) == 0 {
			out = append(out, b.Split+".."+b.Join)
		}
	}
	slices.Sort(out)
	return out
}

// TestStrategiesAreBehaviorallyEquivalent applies random accepted ad-hoc
// changes to instances of random schemas and builds the three Fig. 2
// representations after each: their views are equal, their topologies are
// coherent, their block analyses agree with the one the instance keeps,
// and the instance still runs to completion. The representation is an
// implementation detail — that is the whole point of the SchemaView seam.
func TestStrategiesAreBehaviorallyEquivalent(t *testing.T) {
	trials := 15
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		name := fmt.Sprintf("eq%d", trial)
		schema := sim.RandomSchema(rand.New(rand.NewSource(int64(trial)+500)), name, sim.DefaultSchemaOpts())
		e := engine.New(sim.Org())
		if err := e.Deploy(schema); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		inst, err := e.CreateInstance(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		driver := sim.NewDriver(rand.New(rand.NewSource(int64(trial)*31+7)), e)
		if err := driver.Advance(inst, 5); err != nil {
			t.Fatalf("trial %d: advance: %v", trial, err)
		}
		opRng := rand.New(rand.NewSource(int64(trial)*17 + 3))
		for attempt := 0; attempt < 10; attempt++ {
			if change.ApplyAdHoc(inst, sim.RandomAdHocOps(opRng, inst.View(), attempt)...) != nil {
				continue
			}
			var kept []string
			if err := inst.Mutate(func(mx *engine.Mutable) error {
				info, _ := mx.Blocks()
				kept = blockShape(info)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for rep, v := range fig2Views(t, e, inst) {
				ctx := fmt.Sprintf("trial %d change %d %s", trial, attempt, rep)
				if !model.Equal(v, inst.View()) {
					t.Fatalf("%s: view differs from the instance's", ctx)
				}
				topologyMatches(t, ctx, v)
				info, err := graph.Analyze(v)
				if err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				if got := blockShape(info); !slices.Equal(got, kept) {
					t.Fatalf("%s: blocks %v, the instance keeps %v", ctx, got, kept)
				}
			}
		}
		if err := driver.RunToCompletion(inst); err != nil {
			t.Fatalf("trial %d: completion: %v", trial, err)
		}
	}
}
