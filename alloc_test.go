package adept2_test

import (
	"context"
	"testing"

	"adept2"
	"adept2/internal/sim"
	"adept2/internal/vfs"
)

// TestSubmitAllocationBudget measures allocations per command kind through
// Submit, SubmitAsync+Wait and SubmitBatch of 64, on a MemFS store with
// metrics on (what `adeptctl serve` ships), and fails when a kind costs
// more than its pinned count + 1 — so a transient allocation that creeps
// back onto the command path (a heap Receipt on the sync path, a waiter
// channel per durability wait, a boxed record per journal line, a copy of
// the command to stamp it, a candidate list copied per offer) fails here
// by name, not as a drift in a benchmark.
func TestSubmitAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	const (
		runs  = 40 // AllocsPerRun calls f runs+1 times
		batch = 64
	)
	ctx := context.Background()
	sys, err := adept2.Open("wal", adept2.WithVFS(vfs.NewMemFS()), adept2.WithOrg(sim.Org()),
		adept2.WithCheckpointing(adept2.CheckpointConfig{Every: -1}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if err := sys.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatal(err)
	}

	// cmdFor builds a command for one instance; population returns n fresh
	// instances advanced by the given commands (outside every measured
	// function).
	type cmdFor = func(id string) adept2.Command
	population := func(n int, advance ...cmdFor) []string {
		t.Helper()
		ids := make([]string, n)
		for i := range ids {
			inst, err := sys.CreateInstance("online_order")
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = inst.ID()
			for _, cmd := range advance {
				if _, err := sys.Submit(ctx, cmd(ids[i])); err != nil {
					t.Fatal(err)
				}
			}
		}
		return ids
	}
	start := func(node, user string) cmdFor {
		return func(id string) adept2.Command {
			return &adept2.StartActivity{Instance: id, Node: node, User: user}
		}
	}
	complete := func(node, user string, out map[string]any) cmdFor {
		return func(id string) adept2.Command {
			return &adept2.CompleteActivity{Instance: id, Node: node, User: user, Outputs: out}
		}
	}
	order := map[string]any{"out": "order-1"}

	// One row per command kind: the commands that prepare a fresh instance
	// for it, the measured commands (two for suspend/resume, reported per
	// command), and what one command allocates on each submission path —
	// the measured count, which the test allows one above. The parent of
	// the change that pinned them read 28, 7, 16, 35 and 5 through Submit.
	// doc.go's "Allocation budget" names every allocation behind the
	// submit column; SubmitAsync adds its heap Receipt (create's fraction
	// rounds it away), and SubmitBatch pays its per-batch slices once per
	// 64 commands.
	for _, k := range []struct {
		kind                 string
		prepare, cmds        []cmdFor
		submit, async, batch float64
	}{
		{kind: "create", submit: 18, async: 18, batch: 17.23,
			cmds: []cmdFor{func(string) adept2.Command { return &adept2.CreateInstance{TypeName: "online_order"} }}},
		{kind: "start", submit: 2, async: 3, batch: 2.17,
			cmds: []cmdFor{start("get_order", "ann")}},
		{kind: "complete", submit: 3, async: 4, batch: 3.17, // offers confirm_order
			prepare: []cmdFor{complete("get_order", "ann", order), start("collect_data", "ann")},
			cmds:    []cmdFor{complete("collect_data", "ann", nil)}},
		{kind: "complete+outputs", submit: 19, async: 20, batch: 19.20, // a data write, two items offered
			prepare: []cmdFor{start("get_order", "ann")},
			cmds:    []cmdFor{complete("get_order", "ann", order)}},
		{kind: "suspend/resume", submit: 0, async: 1, batch: 0.17,
			cmds: []cmdFor{
				func(id string) adept2.Command { return &adept2.Suspend{Instance: id} },
				func(id string) adept2.Command { return &adept2.Resume{Instance: id} },
			}},
	} {
		// build returns the commands of n instances, in submission order.
		build := func(n int) []adept2.Command {
			ids := make([]string, n) // create needs none
			if k.kind != "create" {
				ids = population(n, k.prepare...)
			}
			cmds := make([]adept2.Command, 0, n*len(k.cmds))
			for _, id := range ids {
				for _, c := range k.cmds {
					cmds = append(cmds, c(id))
				}
			}
			return cmds
		}
		per := len(k.cmds)
		paths := []struct {
			name   string
			pinned float64
			size   int // commands per measured call
			call   func(cmds []adept2.Command)
		}{
			{"Submit", k.submit, per, func(cmds []adept2.Command) {
				for _, c := range cmds {
					if _, err := sys.Submit(ctx, c); err != nil {
						t.Fatal(err)
					}
				}
			}},
			{"SubmitAsync+Wait", k.async, per, func(cmds []adept2.Command) {
				for _, c := range cmds {
					r, err := sys.SubmitAsync(ctx, c)
					if err == nil {
						err = r.Wait(ctx)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}},
			{"SubmitBatch/64", k.batch, batch, func(cmds []adept2.Command) {
				if _, err := sys.SubmitBatch(ctx, cmds); err != nil {
					t.Fatal(err)
				}
			}},
		}
		for _, p := range paths {
			cmds := build((runs + 1) * p.size / per)
			next := 0
			allocs := testing.AllocsPerRun(runs, func() {
				p.call(cmds[next : next+p.size])
				next += p.size
			})
			perCmd := allocs / float64(p.size)
			t.Logf("%-17s %-17s %6.2f allocs/cmd (pinned %g)", k.kind, p.name, perCmd, p.pinned)
			if perCmd > p.pinned+1 {
				t.Errorf("%s through %s allocates %.2f objects per command, pinned at %g (+1)",
					k.kind, p.name, perCmd, p.pinned)
			}
		}
	}
}
