package adept2_test

import (
	"context"
	"path/filepath"
	"testing"

	"adept2"
	"adept2/internal/sim"
)

func TestSystemUndoAndSuspendJournaled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
	if err != nil {
		t.Fatal(err)
	}
	inst := res.(*adept2.Instance)
	// Two ad-hoc changes, then undo one.
	if _, err := sys.Submit(context.Background(), &adept2.AdHoc{Instance: inst.ID(), Ops: sim.OnlineOrderBiasI2()}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), &adept2.Undo{Instance: inst.ID()}); err != nil {
		t.Fatal(err)
	}
	if len(inst.BiasOps()) != 1 {
		t.Fatalf("bias ops = %d", len(inst.BiasOps()))
	}
	// Suspend, verify user ops blocked, resume.
	if _, err := sys.Submit(context.Background(), &adept2.Suspend{Instance: inst.ID()}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: inst.ID(), Node: "get_order", User: "ann", Outputs: map[string]any{"out": "o"}}); err == nil {
		t.Fatal("suspended instance must reject completion")
	}
	if _, err := sys.Submit(context.Background(), &adept2.Resume{Instance: inst.ID()}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: inst.ID(), Node: "get_order", User: "ann", Outputs: map[string]any{"out": "o"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), &adept2.Undo{Instance: inst.ID(), All: true}); err != nil {
		t.Fatal(err)
	}
	if inst.Biased() {
		t.Fatal("instance should be unbiased")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery replays undo and suspend/resume to the identical state.
	sys2, err := adept2.Open(path, adept2.WithOrg(sim.Org()))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer sys2.Close()
	assertSameState(t, sys, sys2)
	// Error paths through the facade.
	if _, err := sys2.Submit(context.Background(), &adept2.Undo{Instance: "nope"}); err == nil {
		t.Fatal("unknown instance undo must fail")
	}
	if _, err := sys2.Submit(context.Background(), &adept2.Suspend{Instance: "nope"}); err == nil {
		t.Fatal("unknown instance suspend must fail")
	}
}

func TestSystemVersionPinning(t *testing.T) {
	sys := demoSystem(t)
	if _, err := sys.Submit(context.Background(), &adept2.Evolve{TypeName: "online_order", Ops: sim.OnlineOrderTypeChange()}); err != nil {
		t.Fatal(err)
	}
	// New instances default to V2; explicit V1 creation still works (the
	// old version remains deployed for its running instances).
	res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
	if err != nil {
		t.Fatal(err)
	}
	latest := res.(*adept2.Instance)
	if latest.Version() != 2 {
		t.Fatalf("latest version = %d", latest.Version())
	}
	res, err = sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order", Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	pinned := res.(*adept2.Instance)
	if pinned.Version() != 1 {
		t.Fatalf("pinned version = %d", pinned.Version())
	}
	if sys.LatestVersion("online_order") != 2 {
		t.Fatal("latest version bookkeeping")
	}
	if got := len(adept2.EngineOf(sys).InstancesOf("online_order", 1)); got != 1 {
		t.Fatalf("v1 instances = %d", got)
	}
}
