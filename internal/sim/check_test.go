package sim_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"adept2"
	"adept2/internal/sim"
	"adept2/internal/vfs"
)

// build opens a system on its own in-memory disk, its clock standing at the
// given offset past the epoch and a failure retried after a minute,
// deploys "timed" (one clerk activity "a" that carries a deadline and
// writes x), creates i1 and i2, and submits cmds.
func build(t *testing.T, at time.Duration, cmds ...adept2.Command) *adept2.System {
	t.Helper()
	b := adept2.NewBuilder("timed")
	b.DataElement("x", adept2.TypeFloat)
	a := b.Activity("a", "A", adept2.WithRole("clerk"), adept2.WithDeadline(time.Minute))
	b.Write("a", "x", "x")
	schema, err := b.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := adept2.Open("wal", adept2.WithOrg(sim.Org()), adept2.WithVFS(vfs.NewMemFS()),
		adept2.WithClock(func() time.Time { return time.Unix(0, int64(at)) }),
		adept2.WithExceptionPolicy(adept2.RetryThenSuspend(8, time.Minute)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	for _, cmd := range append([]adept2.Command{&adept2.Deploy{Schema: schema},
		&adept2.CreateInstance{TypeName: "timed", ID: "i1"},
		&adept2.CreateInstance{TypeName: "timed", ID: "i2"}}, cmds...) {
		if _, err := sys.Submit(context.Background(), cmd); err != nil {
			t.Fatalf("%s: %v", cmd.CommandName(), err)
		}
	}
	return sys
}

// TestDiffSeesEveryDifference: two systems that differ in one thing — a
// data value, a deadline or retry stamp, a failure count, a worklist of a
// user beyond ann and bob, or a bias op — never summarize alike. Each row
// builds its two systems as variants 0 and 1.
func TestDiffSeesEveryDifference(t *testing.T) {
	start := &adept2.StartActivity{Instance: "i1", Node: "a", User: "ann"}
	fail := &adept2.FailActivity{Instance: "i1", Node: "a", User: "ann", Reason: "boom"}
	// courier hands both instances' "a" to bob and dan.
	var courier []adept2.Command
	for _, inst := range []string{"i1", "i2"} {
		courier = append(courier, &adept2.AdHoc{Instance: inst, Ops: []adept2.Operation{
			&adept2.UpdateStaffAssignment{Activity: "a", NewRole: "courier"}}})
	}
	var elements []adept2.Operation
	for _, id := range []string{"y", "z"} {
		elements = append(elements, &adept2.AddDataElement{Element: &adept2.DataElement{ID: id, Name: id, Type: adept2.TypeString}})
	}
	inst := []string{"i1", "i2"}
	startBy := func(inst, user string) adept2.Command {
		return &adept2.StartActivity{Instance: inst, Node: "a", User: user}
	}
	for _, row := range []struct {
		name  string
		build func(t *testing.T, v int) *adept2.System
	}{
		{"data value", func(t *testing.T, v int) *adept2.System {
			return build(t, 0, &adept2.CompleteActivity{Instance: "i1", Node: "a", User: "ann",
				Outputs: map[string]any{"x": float64(v)}})
		}},
		{"deadline stamp", func(t *testing.T, v int) *adept2.System { return build(t, time.Duration(v)*time.Second, start) }},
		{"retry stamp", func(t *testing.T, v int) *adept2.System { return build(t, time.Duration(v)*time.Second, start, fail) }},
		{"failure count", func(t *testing.T, v int) *adept2.System {
			cmds := []adept2.Command{start}
			for i := 0; i < v; i++ {
				cmds = append(cmds, fail, start)
			}
			return build(t, 0, cmds...)
		}},
		{"cyn's worklist", func(t *testing.T, v int) *adept2.System { return build(t, 0, startBy(inst[v], "cyn")) }},
		{"dan's worklist", func(t *testing.T, v int) *adept2.System {
			return build(t, 0, append(courier, startBy(inst[v], "dan"))...)
		}},
		{"bias op", func(t *testing.T, v int) *adept2.System {
			return build(t, 0, &adept2.AdHoc{Instance: "i1", Ops: elements[:v+1]})
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			a, b := sim.Summary(row.build(t, 0)), sim.Summary(row.build(t, 1))
			if sim.Diff(a, b) == "" {
				t.Fatalf("the two systems summarize alike:\n%s", a)
			}
			if sim.Diff(a, sim.Summary(row.build(t, 0))) != "" {
				t.Fatal("one system summarizes unlike itself built again")
			}
		})
	}
}

// TestLedgerCheck: a recovery that lacks an acknowledged create or
// instance, loses an acknowledged instance's history, or holds a shard
// below a recorded watermark fails the check with what it lost; the
// acknowledged system's own replay passes it.
func TestLedgerCheck(t *testing.T) {
	complete := &adept2.CompleteActivity{Instance: "i1", Node: "a", User: "ann", Outputs: map[string]any{"x": 1.0}}
	acked := build(t, 0, complete, &adept2.CreateInstance{TypeName: "timed", ID: "i3"})
	for _, row := range []struct {
		name   string
		record func(l *sim.Ledger)
		// recovered is what the recovery kept past build's prefix.
		recovered []adept2.Command
		want      string // in Check's error; "" for a pass
	}{
		{"everything kept", func(l *sim.Ledger) { l.AckAll(acked) },
			[]adept2.Command{complete, &adept2.CreateInstance{TypeName: "timed", ID: "i3"}}, ""},
		{"acknowledged create lost", func(l *sim.Ledger) { l.Created("i3") }, nil, "instance i3 lost"},
		{"acknowledged instance lost", func(l *sim.Ledger) { l.AckAll(acked) }, []adept2.Command{complete}, "instance i3 lost"},
		{"acknowledged history lost", func(l *sim.Ledger) { l.Ack(acked, "i1") },
			[]adept2.Command{&adept2.StartActivity{Instance: "i1", Node: "a", User: "ann"},
				&adept2.CreateInstance{TypeName: "timed", ID: "i3"}}, "i1 lost acknowledged history"},
		{"shard below its watermark", func(l *sim.Ledger) { l.Ack(acked) }, []adept2.Command{complete}, "below its acknowledged watermark"},
	} {
		t.Run(row.name, func(t *testing.T) {
			var l sim.Ledger
			row.record(&l)
			err := l.Check(build(t, 0, row.recovered...))
			if (err == nil) != (row.want == "") || err != nil && !strings.Contains(err.Error(), row.want) {
				t.Fatalf("Check: %v, want %q", err, row.want)
			}
		})
	}
}
