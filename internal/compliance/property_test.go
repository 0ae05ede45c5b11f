package compliance_test

import (
	"fmt"
	"math/rand"
	"testing"

	"adept2/internal/change"
	"adept2/internal/compliance"
	"adept2/internal/engine"
	"adept2/internal/graph"
	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/sim"
	"adept2/internal/verify"
)

// TestFastEqualsReplayProperty is the central correctness property of the
// reproduction: for randomized schemas, randomized instance progress, and
// randomized change operations, the O(1) per-operation compliance
// conditions (paper Fig. 1) must return exactly the same verdict as the
// ground-truth history replay.
func TestFastEqualsReplayProperty(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 60
	}
	var checked, compliant int
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		name := fmt.Sprintf("proc%d", trial)
		schema := sim.RandomSchema(rng, name, sim.DefaultSchemaOpts())

		e := engine.New(sim.Org())
		if err := e.Deploy(schema); err != nil {
			t.Fatalf("trial %d: deploy: %v", trial, err)
		}
		inst, err := e.CreateInstance(name, 0)
		if err != nil {
			t.Fatalf("trial %d: create: %v", trial, err)
		}
		driver := sim.NewDriver(rng, e)
		if err := driver.Advance(inst, rng.Intn(25)); err != nil {
			t.Fatalf("trial %d: advance: %v", trial, err)
		}

		ops := sim.RandomAdHocOps(rng, schema, trial)
		if len(ops) == 0 {
			continue
		}
		// Structural gate: the changed schema must verify; otherwise the
		// change is rejected outright and compliance is moot.
		target := schema.Clone()
		target.SetSchemaID(target.SchemaID() + "'")
		if !applyAll(target, ops) {
			continue
		}
		if res := verify.Check(target); !res.OK() {
			continue
		}
		targetInfo, err := graph.Analyze(target)
		if err != nil {
			continue
		}
		baseInfo, err := graph.Analyze(schema)
		if err != nil {
			t.Fatalf("trial %d: base analyze: %v", trial, err)
		}

		fastErr := compliance.CheckFast(fastCtx(inst), ops)
		reduced := history.ReduceInPlace(baseInfo, inst.HistoryEvents())
		_, replayErr := compliance.Replay(target, targetInfo, reduced)

		checked++
		if (fastErr == nil) != (replayErr == nil) {
			t.Errorf("trial %d: verdicts disagree for %v\n  fast:   %v\n  replay: %v\n  history: %v",
				trial, opsString(ops), fastErr, replayErr, eventsString(reduced))
			if testing.Verbose() || t.Failed() {
				dumpInstance(t, inst)
			}
			if trial > 0 && t.Failed() && checked > 10 {
				t.FailNow() // stop flooding after a few counterexamples
			}
		}
		if replayErr == nil {
			compliant++
		}
	}
	if checked < trials/4 {
		t.Fatalf("structural gate rejected too many proposals: only %d/%d checked", checked, trials)
	}
	if compliant == 0 || compliant == checked {
		t.Fatalf("degenerate property distribution: %d/%d compliant (need a mix)", compliant, checked)
	}
	t.Logf("property held on %d checked changes (%d compliant, %d conflicts)", checked, compliant, checked-compliant)
}

func applyAll(target *model.Schema, ops []change.Operation) bool {
	for _, op := range ops {
		if err := op.ApplyTo(target); err != nil {
			return false
		}
	}
	return true
}

func opsString(ops []change.Operation) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = op.String()
	}
	return out
}

func eventsString(events []*history.Event) []string {
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = e.String()
	}
	return out
}

func dumpInstance(t *testing.T, inst *engine.Instance) {
	t.Helper()
	m := inst.MarkingSnapshot()
	v := inst.View()
	for _, id := range v.NodeIDs() {
		t.Logf("  node %-16s %s", id, m.Node(id))
	}
}
