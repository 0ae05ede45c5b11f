package adept2_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"adept2"
	"adept2/internal/sim"
)

// mineSystem builds an in-memory online-order system on the injected
// test clock.
func mineSystem(t *testing.T, clk *testClock) *adept2.System {
	t.Helper()
	sys := adept2.New(
		adept2.WithOrg(sim.Org()),
		adept2.WithClock(clk.Now),
		adept2.WithExceptionPolicy(adept2.RetryThenSuspend(3, time.Minute)),
	)
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	return sys
}

// runOrder drives one online-order instance through its full path with
// explicit starts, advancing the clock by step between start and
// completion so every activity records a duration.
func runOrder(t *testing.T, sys *adept2.System, clk *testClock, step time.Duration) string {
	t.Helper()
	res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
	if err != nil {
		t.Fatal(err)
	}
	inst := res.(*adept2.Instance)
	steps := []struct{ node, user string }{
		{"get_order", "ann"}, {"collect_data", "ann"}, {"confirm_order", "dan"},
		{"compose_order", "bob"}, {"pack_goods", "bob"}, {"deliver_goods", "bob"},
	}
	for _, st := range steps {
		if _, err := sys.Submit(context.Background(), &adept2.StartActivity{Instance: inst.ID(), Node: st.node, User: st.user}); err != nil {
			t.Fatalf("start %s: %v", st.node, err)
		}
		clk.advance(step)
		var out map[string]any
		if st.node == "get_order" {
			out = map[string]any{"out": "o-" + inst.ID()}
		}
		if _, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: inst.ID(), Node: st.node, User: st.user, Outputs: out}); err != nil {
			t.Fatalf("complete %s: %v", st.node, err)
		}
	}
	return inst.ID()
}

// TestMineEndToEnd drives a small mixed population — one completed
// order, one failed-and-retried, one biased with the Fig. 1 conflicting
// change — evolves the type, and checks the mined report: variant
// separation, failure/retry concentration on the failing node, duration
// percentiles from the injected clock, and the drift table flagging the
// stranded instance.
func TestMineEndToEnd(t *testing.T) {
	ctx := context.Background()
	clk := newTestClock()
	sys := mineSystem(t, clk)

	done := runOrder(t, sys, clk, 10*time.Second)

	// i2 fails get_order once, retries after the backoff, completes it.
	res, err := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"})
	if err != nil {
		t.Fatal(err)
	}
	i2 := res.(*adept2.Instance)
	if _, err := sys.Submit(ctx, &adept2.StartActivity{Instance: i2.ID(), Node: "get_order", User: "ann"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(ctx, &adept2.FailActivity{Instance: i2.ID(), Node: "get_order", User: "ann", Reason: "phone line dead"}); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Minute)
	if _, err := sys.SweepDeadlines(ctx, clk.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(ctx, &adept2.StartActivity{Instance: i2.ID(), Node: "get_order", User: "ann"}); err != nil {
		t.Fatal(err)
	}
	clk.advance(30 * time.Second)
	if _, err := sys.Submit(ctx, &adept2.CompleteActivity{Instance: i2.ID(), Node: "get_order", User: "ann", Outputs: map[string]any{"out": "o2"}}); err != nil {
		t.Fatal(err)
	}

	// i3 completes get_order, then takes the deadlock-causing Fig. 1
	// bias — after ΔT it cannot migrate and strands on v1.
	res, err = sys.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"})
	if err != nil {
		t.Fatal(err)
	}
	i3 := res.(*adept2.Instance)
	if _, err := sys.Submit(ctx, &adept2.CompleteActivity{Instance: i3.ID(), Node: "get_order", User: "cyn", Outputs: map[string]any{"out": "o3"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(ctx, &adept2.AdHoc{Instance: i3.ID(), Ops: sim.OnlineOrderBiasI2()}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(ctx, &adept2.Evolve{TypeName: "online_order", Ops: sim.OnlineOrderTypeChange()}); err != nil {
		t.Fatal(err)
	}

	rep, err := sys.Mine(ctx, adept2.MineOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if rep.Instances != 3 || rep.Done != 1 || rep.Biased != 1 {
		t.Fatalf("population: %d instances, %d done, %d biased", rep.Instances, rep.Done, rep.Biased)
	}
	// i2 and i3 share the short variant (the retry is invisible to the
	// fingerprint — get_order plus the auto-completed AND-split); the
	// completed order is its own.
	if rep.DistinctVariants != 2 || len(rep.Variants) != 2 {
		t.Fatalf("variants: %+v", rep.Variants)
	}
	short, full := rep.Variants[0], rep.Variants[1]
	if short.Count != 2 || short.Path[0] != "get_order" {
		t.Fatalf("top variant: %+v", short)
	}
	if full.Count != 1 || full.Done != 1 || full.Steps <= short.Steps {
		t.Fatalf("completed-order variant: %+v", full)
	}
	if len(rep.HotPaths) != 2 || rep.HotPaths[0].Count != 2 {
		t.Fatalf("hot paths: %+v", rep.HotPaths)
	}

	var get *struct{ failures, retries, completes, durations int64 }
	for _, n := range rep.Nodes {
		if n.Node == "get_order" {
			get = &struct{ failures, retries, completes, durations int64 }{
				n.Failures, n.Retries, n.Completes, n.Durations.Count}
			if n.P50 <= 0 {
				t.Fatalf("get_order p50 = %d, want > 0 (explicit starts are stamped)", n.P50)
			}
		}
	}
	if get == nil || get.failures != 1 || get.retries != 1 || get.completes != 3 {
		t.Fatalf("get_order concentration: %+v", get)
	}
	// Two completions followed explicit stamped starts (the full order
	// and i2's retry); i3 completed over an implicit, unstamped start,
	// which must NOT produce a duration — exactly two observations.
	if get.durations != 2 {
		t.Fatalf("get_order durations: %d, want 2", get.durations)
	}

	// All three instances traversed get_order → AND-split; the top edge
	// must carry the whole population, and the full path contributes the
	// rest.
	if len(rep.Edges) < full.Steps-1 {
		t.Fatalf("edges: %+v", rep.Edges)
	}
	if e := rep.Edges[0]; e.From != "get_order" || e.Count != 3 {
		t.Fatalf("top edge: %+v", e)
	}

	// Drift: latest is v2; the clean one-step instance migrated, the
	// finished order and the conflicting bias did not.
	if len(rep.Drift) != 1 {
		t.Fatalf("drift: %+v", rep.Drift)
	}
	d := rep.Drift[0]
	if d.Type != "online_order" || d.LatestVersion != 2 || d.Instances != 3 {
		t.Fatalf("drift row: %+v", d)
	}
	if d.Biased != 1 || d.Stale < 1 || d.NonCompliant < d.Stale {
		t.Fatalf("drift classification: %+v", d)
	}
	_ = done
}

// TestMineAllocsBounded pins the O(shard batch) allocation contract: a
// scan over a population four times the batch size must allocate far
// fewer objects than one-per-instance — the reduction buffer, the
// visitor closure, and the capped report tables are shared across the
// whole walk.
func TestMineAllocsBounded(t *testing.T) {
	const n = 1024
	sys := adept2.New(adept2.WithOrg(sim.Org()))
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
		if err != nil {
			t.Fatal(err)
		}
		inst := res.(*adept2.Instance)
		if _, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: inst.ID(), Node: "get_order", User: "ann", Outputs: map[string]any{"out": fmt.Sprint(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := sys.Mine(ctx, adept2.MineOptions{BatchSize: 256}); err != nil {
			t.Fatal(err)
		}
	})
	// One variant, seven nodes, a handful of pages: the scan's footprint
	// is the report plus paging, nowhere near one allocation per
	// instance. n/4 is an order of magnitude of headroom.
	if allocs > n/4 {
		t.Fatalf("Mine allocated %.0f objects over %d instances — scan is not O(batch)", allocs, n)
	}
}

// BenchmarkMine measures the streaming scan over a multi-thousand
// instance population (the bench.sh mining figure).
func BenchmarkMine(b *testing.B) {
	const n = 4096
	sys := adept2.New(adept2.WithOrg(sim.Org()))
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
		if err != nil {
			b.Fatal(err)
		}
		inst := res.(*adept2.Instance)
		if _, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: inst.ID(), Node: "get_order", User: "ann", Outputs: map[string]any{"out": fmt.Sprint(i)}}); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sys.Mine(ctx, adept2.MineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Instances != n {
			b.Fatalf("mined %d instances, want %d", rep.Instances, n)
		}
	}
}
