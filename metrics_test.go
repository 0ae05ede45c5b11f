package adept2_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adept2"
	"adept2/internal/obs"
	"adept2/internal/sim"
)

// openMetrics opens a system for the telemetry tests: seeded org, no
// auto-checkpointing, every submission traced.
func openMetrics(t *testing.T, path string, extra ...adept2.Option) *adept2.System {
	t.Helper()
	opts := append([]adept2.Option{
		adept2.WithOrg(sim.Org()),
		adept2.WithCheckpointing(adept2.CheckpointConfig{Every: -1}),
		adept2.WithTraceSampling(512, 1),
	}, extra...)
	sys, err := adept2.Open(path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestMetricsReconcile drives a randomized mix of blocking, async,
// batch, and failing submissions, then checks the telemetry plane
// against ground truth the test kept on the side: ok/error counts per
// op, the latency-histogram bookkeeping invariant, the appends counter
// against the journal's actual growth, and the engine gauges against
// the engine's own accessors.
func TestMetricsReconcile(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(8))
	sys := openMetrics(t, filepath.Join(t.TempDir(), "wal.ndjson"))
	defer sys.Close()

	base := sys.Metrics().Shards[0].Seq

	wantOK := map[string]int64{}
	wantErr := map[string]int64{}
	if _, err := sys.Submit(ctx, &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	wantOK["deploy"]++

	const insts = 4
	ids := make([]string, insts)
	suspended := make([]bool, insts)
	for i := range ids {
		res, err := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"})
		if err != nil {
			t.Fatal(err)
		}
		inst := res.(*adept2.Instance)
		ids[i] = inst.ID()
		wantOK["create"]++
	}

	toggleCmd := func(i int) adept2.Command {
		if suspended[i] {
			suspended[i] = false
			wantOK["resume"]++
			return &adept2.Resume{Instance: ids[i]}
		}
		suspended[i] = true
		wantOK["suspend"]++
		return &adept2.Suspend{Instance: ids[i]}
	}

	for step := 0; step < 300; step++ {
		i := rng.Intn(insts)
		switch rng.Intn(4) {
		case 0: // blocking
			if _, err := sys.Submit(ctx, toggleCmd(i)); err != nil {
				t.Fatal(err)
			}
		case 1: // async + awaited receipt
			r, err := sys.SubmitAsync(ctx, toggleCmd(i))
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		case 2: // batch window on one instance
			n := 1 + rng.Intn(6)
			batch := make([]adept2.Command, 0, n)
			for k := 0; k < n; k++ {
				batch = append(batch, toggleCmd(i))
			}
			if _, err := sys.SubmitBatch(ctx, batch); err != nil {
				t.Fatal(err)
			}
		case 3: // guaranteed failure: unknown instance
			if _, err := sys.Submit(ctx, &adept2.Suspend{Instance: "ghost"}); err == nil {
				t.Fatal("suspend of unknown instance succeeded")
			}
			wantErr["suspend"]++
		}
	}

	snap := sys.Metrics()

	// Outcome counters match the ground truth the test accumulated.
	for op, want := range wantOK {
		if got := snap.Ops[op].OK; got != want {
			t.Errorf("op %s: ok = %d, want %d", op, got, want)
		}
	}
	for op, want := range wantErr {
		var got int64
		for _, n := range snap.Ops[op].Errors {
			got += n
		}
		if got != want {
			t.Errorf("op %s: errors = %d (%v), want %d", op, got, snap.Ops[op].Errors, want)
		}
	}
	if n := snap.Ops["suspend"].Errors["not_found"]; n != wantErr["suspend"] {
		t.Errorf("suspend not_found = %d, want %d", n, wantErr["suspend"])
	}

	// Latency histograms only see singular submissions: OK - Batched.
	for op, o := range snap.Ops {
		if o.OK-o.Batched != o.Latency.Count {
			t.Errorf("op %s: latency count %d != ok %d - batched %d",
				op, o.Latency.Count, o.OK, o.Batched)
		}
	}

	// The shard appends counter equals the journal's actual growth.
	var appends, growth int64
	for _, sh := range snap.Shards {
		appends += sh.Appends
		growth += int64(sh.Seq)
	}
	growth -= int64(base)
	if appends != growth {
		t.Errorf("shard appends %d != journal growth %d", appends, growth)
	}
	if appends == 0 {
		t.Error("no appends counted")
	}

	// Engine gauges agree with the engine's own accessors.
	if snap.Engine.Instances != len(sys.Instances()) {
		t.Errorf("instances gauge %d != %d", snap.Engine.Instances, len(sys.Instances()))
	}
	if snap.Engine.OpenExceptions != len(sys.OpenExceptions()) {
		t.Errorf("open-exceptions gauge %d != %d", snap.Engine.OpenExceptions, len(sys.OpenExceptions()))
	}

	// Every submission was traced (1/1 sampling): the ring holds its
	// capacity's worth of spans, ordered by submit time, with the
	// blocking/awaited ones carrying the full submit→applied timeline.
	if len(snap.Traces) == 0 {
		t.Fatal("no trace spans captured")
	}
	prev := int64(0)
	for _, sp := range snap.Traces {
		if sp.Op == "" || (sp.Seq == 0 && sp.Err == "") {
			t.Fatalf("incomplete span: %+v", sp)
		}
		if sp.SubmitNanos < prev {
			t.Fatal("trace spans not ordered by submit time")
		}
		prev = sp.SubmitNanos
		if sp.AppliedNanos != 0 && sp.AppliedNanos < sp.SubmitNanos {
			t.Fatalf("span applied before submit: %+v", sp)
		}
	}
}

// TestMetricsReplayRecordsNothing pins the recovery rule: replaying a
// populated journal at Open must leave every live-path family at zero —
// only the recovery family records, and the shard seq still shows the
// journal's real head.
func TestMetricsReplayRecordsNothing(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	sys := openMetrics(t, path)
	if _, err := sys.Submit(ctx, &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"})
	if err != nil {
		t.Fatal(err)
	}
	inst := res.(*adept2.Instance)
	for i := 0; i < 10; i++ {
		if _, err := sys.Submit(ctx, toggle(inst.ID(), i)); err != nil {
			t.Fatal(err)
		}
	}
	head := sys.JournalSeq()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys = openMetrics(t, path)
	defer sys.Close()
	snap := sys.Metrics()
	if len(snap.Ops) != 0 {
		t.Errorf("replay recorded op metrics: %v", snap.Ops)
	}
	for _, sh := range snap.Shards {
		if sh.Appends != 0 {
			t.Errorf("replay counted %d appends on shard %d", sh.Appends, sh.Shard)
		}
	}
	if snap.Recovery.Count != 1 {
		t.Errorf("recovery count = %d, want 1", snap.Recovery.Count)
	}
	if snap.Recovery.Replayed == 0 {
		t.Error("recovery replayed nothing despite populated journal")
	}
	if snap.Shards[0].Seq != head {
		t.Errorf("shard seq %d != journal head %d", snap.Shards[0].Seq, head)
	}
	if d := snap.Shards[0].Depth; d != 0 {
		t.Errorf("reopened shard reports %d recovered records as staged, not durable", d)
	}
	if len(snap.Traces) != 0 {
		t.Errorf("replay published %d trace spans", len(snap.Traces))
	}
}

// TestMetricsDisabled checks the switched-off plane: no accumulated
// families, but the instantaneous gauges (engine, shard seq, health)
// still serve from live state.
func TestMetricsDisabled(t *testing.T) {
	ctx := context.Background()
	sys := openMetrics(t, filepath.Join(t.TempDir(), "wal.ndjson"), adept2.WithMetricsDisabled())
	defer sys.Close()
	if _, err := sys.Submit(ctx, &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"})
	if err != nil {
		t.Fatal(err)
	}
	inst := res.(*adept2.Instance)
	if _, err := sys.Submit(ctx, &adept2.Suspend{Instance: inst.ID()}); err != nil {
		t.Fatal(err)
	}
	snap := sys.Metrics()
	if len(snap.Ops) != 0 || len(snap.Traces) != 0 {
		t.Errorf("disabled plane accumulated: ops %v, %d traces", snap.Ops, len(snap.Traces))
	}
	if snap.Shards[0].Seq != sys.JournalSeq() {
		t.Errorf("shard seq gauge %d != journal %d", snap.Shards[0].Seq, sys.JournalSeq())
	}
	if snap.Engine.Instances != 1 {
		t.Errorf("instances gauge = %d, want 1", snap.Engine.Instances)
	}
}

// TestSweepTimer covers the in-process deadline sweeper: a deadline
// expires by the injected clock, the timer (not any test call) fires
// the sweep that escalates it, the sweep families record, and Close
// shuts the timer down cleanly.
func TestSweepTimer(t *testing.T) {
	// The sweeper goroutine reads the clock concurrently with the test
	// advancing it, so this test needs an atomic clock, not testClock.
	var clk atomicClock
	clk.set(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC))
	sys, err := adept2.Open(filepath.Join(t.TempDir(), "wal.ndjson"),
		adept2.WithOrg(sim.Org()),
		adept2.WithClock(clk.Now),
		adept2.WithCheckpointing(adept2.CheckpointConfig{Every: -1}),
		adept2.WithSweepInterval(2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	id := startFix(t, sys)
	clk.advance(3 * time.Minute) // past fix's 2m deadline

	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := sys.Metrics()
		if snap.Exception.Sweeps > 0 && snap.Exception.Timeouts == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timer never escalated: sweeps=%d timeouts=%d",
				snap.Exception.Sweeps, snap.Exception.Timeouts)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !hasItem(sys, "dan", id, "fix") {
		t.Error("escalation did not offer fix to the sales role")
	}
	snap := sys.Metrics()
	if snap.Exception.SweepNanos.Count == 0 {
		t.Error("sweep duration histogram empty")
	}
	if snap.Engine.OpenExceptions != len(sys.OpenExceptions()) {
		t.Errorf("open-exceptions gauge %d != %d",
			snap.Engine.OpenExceptions, len(sys.OpenExceptions()))
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// atomicClock is a logical clock safe for concurrent readers (the
// in-process sweeper polls it from its own goroutine).
type atomicClock struct{ nanos atomic.Int64 }

func (c *atomicClock) set(t time.Time)         { c.nanos.Store(t.UnixNano()) }
func (c *atomicClock) Now() time.Time          { return time.Unix(0, c.nanos.Load()) }
func (c *atomicClock) advance(d time.Duration) { c.nanos.Add(d.Nanoseconds()) }

// TestExceptionMetrics reconciles the exception families against the
// loop's ground truth: failures/retries from the op counters, policy
// action counts, and escalation state surviving in the gauges.
func TestExceptionMetrics(t *testing.T) {
	ctx := context.Background()
	clk := newTestClock()
	sys := openRepair(t, filepath.Join(t.TempDir(), "wal.ndjson"), clk,
		adept2.RetryThenSuspend(3, time.Minute))
	defer sys.Close()
	id := startFix(t, sys)

	if _, err := sys.Submit(ctx, &adept2.FailActivity{Instance: id, Node: "fix", User: "ann", Reason: "printer on fire"}); err != nil {
		t.Fatal(err)
	}
	snap := sys.Metrics()
	if snap.Exception.Failures != 1 {
		t.Errorf("failures = %d, want 1", snap.Exception.Failures)
	}
	if snap.Exception.Actions["retry"] != 1 {
		t.Errorf("policy actions = %v, want retry=1", snap.Exception.Actions)
	}

	// The backoff sweep lifts the retry: counted as a sweep + a retry op.
	clk.advance(2 * time.Minute)
	if _, err := sys.SweepDeadlines(ctx, clk.Now()); err != nil {
		t.Fatal(err)
	}
	snap = sys.Metrics()
	if snap.Exception.Sweeps != 1 {
		t.Errorf("sweeps = %d, want 1", snap.Exception.Sweeps)
	}
	if snap.Exception.Retries != 1 {
		t.Errorf("retries = %d, want 1", snap.Exception.Retries)
	}
	if snap.Engine.OpenExceptions != len(sys.OpenExceptions()) {
		t.Errorf("open-exceptions gauge %d != %d",
			snap.Engine.OpenExceptions, len(sys.OpenExceptions()))
	}
}

// TestCheckpointMetrics checks the checkpoint family and the snapshot
// store's byte counters across a checkpoint and the recovery that loads
// it.
func TestCheckpointMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	sys := openMetrics(t, path)
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap := sys.Metrics()
	if snap.Checkpoint.Count != 1 || snap.Checkpoint.Failures != 0 {
		t.Errorf("checkpoint count=%d failures=%d, want 1/0",
			snap.Checkpoint.Count, snap.Checkpoint.Failures)
	}
	if snap.Checkpoint.BytesWritten == 0 {
		t.Error("checkpoint wrote zero bytes")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys = openMetrics(t, path)
	defer sys.Close()
	snap = sys.Metrics()
	if snap.Checkpoint.BytesRead == 0 {
		t.Error("recovery read zero snapshot bytes despite checkpoint")
	}
	if snap.Recovery.Count != 1 {
		t.Errorf("recovery count = %d, want 1", snap.Recovery.Count)
	}
}

// TestSubmitLabelSpace pins the label values of adept2_submit_total: a
// System driven through every command and refusals of three classes
// renders the op and code of each sample, in exposition order, as
// testdata/submit_labels.txt holds them. The file was written before the
// command and code tables existed, so neither table can rename or drop a
// label that a dashboard selects on.
func TestSubmitLabelSpace(t *testing.T) {
	ctx := context.Background()
	clk := newTestClock()
	sys := openRepair(t, filepath.Join(t.TempDir(), "wal"), clk, adept2.RetryThenSuspend(3, time.Minute))
	defer sys.Close()
	fix := startFix(t, sys) // deploy, create, complete, start
	if _, err := sys.Submit(ctx, &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"})
	if err != nil {
		t.Fatal(err)
	}
	order := res.(*adept2.Instance).ID()
	for _, cmd := range []adept2.Command{
		&adept2.AddUser{User: &adept2.User{ID: "zoe", Roles: []string{"clerk"}}},
		&adept2.TimeoutActivity{Instance: fix, Node: "fix"},
		&adept2.FailActivity{Instance: fix, Node: "fix", User: "ann"},
		&adept2.RetryActivity{Instance: fix, Node: "fix"},
		&adept2.AdHoc{Instance: order, Ops: sim.OnlineOrderBiasI2()},
		&adept2.Undo{Instance: order},
		&adept2.Suspend{Instance: order},
		&adept2.Resume{Instance: order},
		&adept2.Evolve{TypeName: "online_order", Ops: sim.OnlineOrderTypeChange()},
	} {
		if _, err := sys.Submit(ctx, cmd); err != nil {
			t.Fatalf("%s: %v", cmd.CommandName(), err)
		}
	}
	for _, refusal := range []struct {
		cmd  adept2.Command
		want error
	}{
		{&adept2.StartActivity{Instance: "ghost", Node: "fix"}, adept2.ErrNotFound},
		{&adept2.Resume{Instance: order}, adept2.ErrConflict},
		{&adept2.Deploy{}, adept2.ErrInvalid},
	} {
		if _, err := sys.Submit(ctx, refusal.cmd); !errors.Is(err, refusal.want) {
			t.Fatalf("%s: err = %v, want %v", refusal.cmd.CommandName(), err, refusal.want)
		}
	}

	var prom bytes.Buffer
	if err := obs.WritePrometheus(&prom, sys.Metrics()); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.Split(prom.String(), "\n") {
		if labels, ok := strings.CutPrefix(line, "adept2_submit_total{"); ok {
			labels, _, _ = strings.Cut(labels, "}")
			got.WriteString(labels + "\n")
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "submit_labels.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("adept2_submit_total labels moved:\n%s", sim.Diff(string(want), got.String()))
	}
}
