package adept2_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adept2"
	"adept2/internal/sim"
	"adept2/internal/vfs"
)

// crashLayouts are the configurations every fault property is checked
// against: both shard counts, and the zero value Open runs when no
// WithCheckpointing is given.
var crashLayouts = []struct {
	name string
	cfg  adept2.CheckpointConfig
}{
	{"default", adept2.CheckpointConfig{}},
	{"shards=1", adept2.CheckpointConfig{Every: 16}},
	{"shards=4", adept2.CheckpointConfig{Every: 16, Shards: 4}},
}

// TestCrashPointRecovery is the PR 6 acceptance property test: the same
// random workload is run over an in-memory disk that is killed at every
// I/O site in turn (a profiling run enumerates the sites). After each
// crash — which discards everything not yet fsync-covered — the layout
// must verify clean, recovery must succeed, every ACKNOWLEDGED write
// must still be there (the driver's ledger), the recovered system must
// accept new writes, and a second recovery of the same bytes must be
// deterministic. Some crash must kill the store mid-evolve and some
// mid-undo; the log names, per layout, the command each crash killed.
func TestCrashPointRecovery(t *testing.T) {
	const steps = 40
	killed := map[string]int{} // command whose reply a crash killed the driver in -> sites
	for _, l := range crashLayouts {
		t.Run(l.name, func(t *testing.T) {
			// Profiling run on a healthy disk: count the workload's I/O sites.
			ffs := vfs.NewFaultFS(vfs.NewMemFS(), nil)
			sys, err := adept2.Open("wal",
				adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(l.cfg), adept2.WithVFS(ffs))
			if err != nil {
				t.Fatal(err)
			}
			newDriver(t, sys, 7, false).run(steps)
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			total := ffs.OpCount()
			sites := int64(96)
			if testing.Short() {
				sites = 24
			}
			stride := total/sites + 1
			here := map[string]int{}
			for site := int64(1); site <= total; site += stride {
				here[crashRun(t, l.cfg, site, steps)]++
			}
			t.Logf("%d crash sites of %d I/O operations, by the command each killed the driver in: %v",
				(total+stride-1)/stride, total, here)
			for cmd, n := range here {
				killed[cmd] += n
			}
		})
	}
	// Which reply sees a crash first moves with the fsync grouping, so a
	// layout may miss one of the two in a run; the three together do not.
	if !testing.Short() && (killed["evolve"] == 0 || killed["undo"] == 0) {
		t.Fatalf("no crash killed the store mid-evolve or none mid-undo: %v", killed)
	}
}

// crashRun replays the workload with the disk dying at the site-th I/O
// operation, checks the recovery properties, and returns the command whose
// reply killed the driver ("none" when none did).
func crashRun(t *testing.T, cfg adept2.CheckpointConfig, site int64, steps int) string {
	t.Helper()
	mem := vfs.NewMemFS()
	ffs := vfs.NewFaultFS(mem, vfs.CrashAt(site))
	ctx := context.Background()

	var d *driver
	sys, err := adept2.Open("wal",
		adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg), adept2.WithVFS(ffs))
	if err == nil {
		d = newDriver(t, sys, 7, true)
		d.run(steps)
		_ = sys.Close() // the dead disk may fail the final flush
	}
	// else: the disk died during the initial open — nothing was
	// acknowledged, recovery below must still produce a working system.

	// Survey the surviving bytes (only fsync-covered state remains) with
	// the options the Open below gets: verify's verdict and Recovery must
	// match that Open's.
	rep := adept2.VerifyLayout("wal", false,
		adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg), adept2.WithVFS(mem))
	for _, p := range rep.Problems {
		t.Fatalf("site %d: layout problem after crash: %s", site, p)
	}

	got, err := adept2.Open("wal",
		adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg), adept2.WithVFS(mem))
	if err != nil {
		t.Fatalf("site %d: recovery: %v", site, err)
	}
	if !reflect.DeepEqual(rep.Recovery, got.Recovery()) {
		t.Fatalf("site %d: verify says recovery %+v, Open did %+v", site, rep.Recovery, got.Recovery())
	}
	killedBy := "none"
	if d != nil && d.dead {
		killedBy = d.killedBy
	}
	if d != nil {
		if err := d.ledger.Check(got); err != nil {
			t.Fatalf("site %d: %v", site, err)
		}
	}
	// Writability probe: the recovered system accepts new durable work.
	if _, err := got.Submit(ctx, &adept2.AddUser{User: &adept2.User{ID: fmt.Sprintf("probe-%d", site)}}); err != nil {
		t.Fatalf("site %d: post-recovery write: %v", site, err)
	}
	if err := got.Health(); err != nil {
		t.Fatalf("site %d: post-recovery health: %v", site, err)
	}
	if err := got.Close(); err != nil {
		t.Fatalf("site %d: close: %v", site, err)
	}
	// Determinism: recovering the same bytes again yields the same state.
	again, err := adept2.Open("wal",
		adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg), adept2.WithVFS(mem))
	if err != nil {
		t.Fatalf("site %d: second recovery: %v", site, err)
	}
	assertSameState(t, got, again)
	if err := again.Close(); err != nil {
		t.Fatalf("site %d: close: %v", site, err)
	}
	return killedBy
}

// TestTransientFaultsNeverWedge injects sporadic write/sync/truncate
// failures — including torn writes — into the full workload and demands
// the retry machinery absorbs every one: no wedge, every receipt
// resolves, and the final state is byte-identical to a fault-free run.
func TestTransientFaultsNeverWedge(t *testing.T) {
	for _, l := range crashLayouts {
		t.Run(l.name, func(t *testing.T) {
			cfg := l.cfg
			ref := transientRun(t, cfg, nil)

			var injected atomic.Int64
			script := func(n int64, op vfs.OpRef) vfs.Decision {
				switch op.Kind {
				case vfs.OpWrite:
					if n%61 == 0 {
						injected.Add(1)
						return vfs.Decision{Err: vfs.ErrInjected, TornPrefix: 3}
					}
					fallthrough
				case vfs.OpSync, vfs.OpTruncate, vfs.OpSyncDir, vfs.OpStatFile:
					if n%23 == 0 {
						injected.Add(1)
						return vfs.Decision{Err: vfs.ErrInjected}
					}
				}
				return vfs.Decision{}
			}
			faulty := transientRun(t, cfg, script)
			if injected.Load() == 0 {
				t.Fatal("fault script never fired — the workload shrank under the schedule")
			}
			assertSameState(t, ref, faulty)
		})
	}
}

// transientRun executes the deterministic workload over MemFS with an
// optional fault script and returns the closed system for comparison.
func transientRun(t *testing.T, cfg adept2.CheckpointConfig, script vfs.Script) *adept2.System {
	t.Helper()
	// The script is armed only after Open: recovery-time faults are the
	// crash-point test's domain; this one targets the serving pipeline.
	ffs := vfs.NewFaultFS(vfs.NewMemFS(), nil)
	sys, err := adept2.Open("wal",
		adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg), adept2.WithVFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	ffs.SetScript(script)
	newDriver(t, sys, 11, false).run(60)
	hi := sys.HealthInfo()
	if hi.Wedged != nil {
		t.Fatalf("wedged under transient faults: %v", hi.Wedged)
	}
	if script != nil && hi.FlushRetries == 0 {
		t.Fatal("no flush was retried: the faults missed the journal")
	}
	if err := sys.Close(); err != nil && script == nil {
		t.Fatal(err)
	}
	return sys
}

// TestPersistentFaultDegradesAndHeals checks the degraded-mode contract:
// a persistent journal fault wedges the pipeline after the retry budget;
// reads and pagination keep serving while every submission path fails
// fast (un-applied); Heal with the fault still present fails; once the
// fault clears, Heal restores full write service in place, and no
// acknowledged OR accepted write was lost across the wedge/heal cycle.
func TestPersistentFaultDegradesAndHeals(t *testing.T) {
	for _, l := range crashLayouts {
		t.Run(l.name, func(t *testing.T) {
			cfg := l.cfg
			cfg.Every = -1 // no checkpoints: the journal is the story here
			ctx := context.Background()
			ffs := vfs.NewFaultFS(vfs.NewMemFS(), nil)
			sys, err := adept2.Open("wal",
				adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg), adept2.WithVFS(ffs))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"}); err != nil {
				t.Fatal(err)
			}

			// The disk stops persisting anything, persistently.
			ffs.SetScript(vfs.FailFrom(1, vfs.ErrInjected,
				vfs.OpWrite, vfs.OpSync, vfs.OpTruncate, vfs.OpStatFile))

			// The tripping command is ACCEPTED (buffered append is memory-
			// only) but its receipt settles with the wedge.
			r, err := sys.SubmitAsync(ctx, &adept2.CreateInstance{TypeName: "online_order"})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Wait(ctx); !errors.Is(err, adept2.ErrWedged) {
				t.Fatalf("receipt under persistent fault: %v, want ErrWedged", err)
			}

			// Degraded mode: submissions fail fast, BEFORE the mutation.
			n := len(sys.Instances())
			if _, err := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"}); !errors.Is(err, adept2.ErrWedged) {
				t.Fatalf("submit while wedged: %v, want ErrWedged", err)
			}
			var e *adept2.Error
			_, err = sys.SubmitBatch(ctx, []adept2.Command{&adept2.CreateInstance{TypeName: "online_order"}})
			if !errors.As(err, &e) || e.Code != adept2.CodeWedged || e.Applied {
				t.Fatalf("batch while wedged: %+v, want un-applied CodeWedged", err)
			}
			if got := len(sys.Instances()); got != n {
				t.Fatalf("wedged submission mutated state: %d -> %d instances", n, got)
			}
			// Reads, pagination, and health keep serving.
			if items, _ := sys.WorkItemsPage("ann", "", 10); items == nil && len(sys.WorkItems("ann")) > 0 {
				t.Fatal("pagination stopped serving while wedged")
			}
			if _, next := sys.InstancesPage("", 1); next == "" && len(sys.Instances()) > 1 {
				t.Fatal("instance pagination stopped serving while wedged")
			}
			hi := sys.HealthInfo()
			if hi.Wedged == nil || len(hi.WedgedShards) == 0 {
				t.Fatalf("HealthInfo hides the wedge: %+v", hi)
			}
			// Heal cannot succeed while the fault persists.
			if err := sys.Heal(ctx); err == nil {
				t.Fatal("heal succeeded with the fault still present")
			}
			// Fault clears; heal restores service in place.
			ffs.SetScript(nil)
			if err := sys.Heal(ctx); err != nil {
				t.Fatalf("heal: %v", err)
			}
			if err := sys.Health(); err != nil {
				t.Fatalf("health after heal: %v", err)
			}
			if _, err := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"}); err != nil {
				t.Fatalf("submit after heal: %v", err)
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}

			// Everything acknowledged or accepted survives recovery: the
			// wedge window's record was retained and re-flushed by Heal.
			got, err := adept2.Open("wal",
				adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg), adept2.WithVFS(ffs))
			if err != nil {
				t.Fatal(err)
			}
			defer got.Close()
			assertSameState(t, sys, got)
		})
	}
}

// TestReceiptWaitCancelRacesWedgeThenHeal pins the Receipt.Wait
// contract under the worst interleaving: a Wait abandoned by ctx
// cancellation while the committer is failing must NOT settle the
// receipt; after the pipeline wedges and is healed, a later Wait on the
// same receipt resolves nil and the record is durable.
func TestReceiptWaitCancelRacesWedgeThenHeal(t *testing.T) {
	cfg := adept2.CheckpointConfig{Every: -1}
	ctx := context.Background()
	ffs := vfs.NewFaultFS(vfs.NewMemFS(), nil)
	sys, err := adept2.Open("wal",
		adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg), adept2.WithVFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(ctx, &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}

	ffs.SetScript(vfs.FailFrom(1, vfs.ErrInjected,
		vfs.OpWrite, vfs.OpSync, vfs.OpTruncate, vfs.OpStatFile))
	r, err := sys.SubmitAsync(ctx, &adept2.CreateInstance{TypeName: "online_order"})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel a Wait while the committer is still retrying (or already
	// wedged — both must map to CodeCanceled, not settle the receipt).
	shortCtx, cancel := context.WithTimeout(ctx, time.Millisecond)
	err = r.Wait(shortCtx)
	cancel()
	var e *adept2.Error
	if err == nil || !errors.As(err, &e) {
		t.Fatalf("canceled wait: %v", err)
	}
	if e.Code != adept2.CodeCanceled && e.Code != adept2.CodeWedged {
		t.Fatalf("canceled wait code: %s", e.Code)
	}

	// Let the retry budget exhaust: the pipeline wedges.
	deadline := time.Now().Add(5 * time.Second)
	for sys.HealthInfo().Wedged == nil {
		if time.Now().After(deadline) {
			t.Fatal("pipeline never wedged")
		}
		time.Sleep(time.Millisecond)
	}

	ffs.SetScript(nil)
	if err := sys.Heal(ctx); err != nil {
		t.Fatalf("heal: %v", err)
	}
	// A Wait abandoned by cancellation (not settled) resolves after heal.
	if err := r.Wait(ctx); err != nil && !errors.Is(err, adept2.ErrWedged) {
		t.Fatalf("wait after heal: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := adept2.Open("wal",
		adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg), adept2.WithVFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	assertSameState(t, sys, got)
}

// TestHealForcesCheckpoint: healing a wedged pipeline forces a
// checkpoint, so the journal suffix written during the wedge era —
// records that were retried, buffered, and re-flushed — never needs to
// be replayed again: the next recovery starts at the heal-time snapshot
// and replays only records submitted after it.
func TestHealForcesCheckpoint(t *testing.T) {
	cfg := adept2.CheckpointConfig{Every: -1}
	ctx := context.Background()
	ffs := vfs.NewFaultFS(vfs.NewMemFS(), nil)
	sys, err := adept2.Open("wal",
		adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg), adept2.WithVFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(ctx, &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"}); err != nil {
			t.Fatal(err)
		}
	}

	// Wedge the pipeline with a persistent fault; the tripping record is
	// accepted but only becomes durable when Heal re-flushes it.
	ffs.SetScript(vfs.FailFrom(1, vfs.ErrInjected,
		vfs.OpWrite, vfs.OpSync, vfs.OpTruncate, vfs.OpStatFile))
	r, err := sys.SubmitAsync(ctx, &adept2.CreateInstance{TypeName: "online_order"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(ctx); !errors.Is(err, adept2.ErrWedged) {
		t.Fatalf("receipt under persistent fault: %v, want ErrWedged", err)
	}
	ffs.SetScript(nil)
	if err := sys.Heal(ctx); err != nil {
		t.Fatalf("heal: %v", err)
	}
	healSeq := sys.JournalSeq()

	// Only these records land after the forced checkpoint.
	const suffix = 3
	for i := 0; i < suffix; i++ {
		if _, err := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"}); err != nil {
			t.Fatal(err)
		}
	}
	tail := sys.JournalSeq()
	if tail != healSeq+suffix {
		t.Fatalf("journal grew %d -> %d, want exactly %d suffix records", healSeq, tail, suffix)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := adept2.Open("wal",
		adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg), adept2.WithVFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	info := rec.Recovery()
	if info.FullReplay || info.SnapshotSeq != healSeq {
		t.Fatalf("recovery ignored the heal-forced checkpoint: %+v (heal seq %d)", info, healSeq)
	}
	if info.Replayed != suffix {
		t.Fatalf("replayed %d records, want only the %d-record post-heal suffix", info.Replayed, suffix)
	}
	assertSameState(t, sys, rec) // the wedge-era create included
}

// TestCheckpointDirFsyncFailureDoesNotWedge: a failing snapshot-directory
// fsync makes background checkpoints fail (visible via Health and
// HealthInfo.CheckpointErr) but must never wedge the write path; after
// the fault clears, Heal resets the checkpoint backoff and the next
// checkpoint succeeds.
func TestCheckpointDirFsyncFailureDoesNotWedge(t *testing.T) {
	cfg := adept2.CheckpointConfig{Every: 4}
	ctx := context.Background()
	ffs := vfs.NewFaultFS(vfs.NewMemFS(), nil)
	sys, err := adept2.Open("wal",
		adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg), adept2.WithVFS(ffs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(ctx, &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}

	ffs.SetScript(vfs.FailFrom(1, vfs.ErrInjected, vfs.OpSyncDir))
	for i := 0; i < 8; i++ {
		if _, err := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"}); err != nil {
			t.Fatalf("submit during checkpoint failure: %v", err)
		}
	}
	if err := sys.WaitCheckpoints(); err == nil {
		t.Fatal("checkpoint succeeded with snapshot-dir fsync failing")
	}
	hi := sys.HealthInfo()
	if hi.CheckpointErr == nil {
		t.Fatal("HealthInfo hides the checkpoint failure")
	}
	if hi.Wedged != nil {
		t.Fatalf("checkpoint failure wedged the write path: %v", hi.Wedged)
	}

	ffs.SetScript(nil)
	if err := sys.Heal(ctx); err != nil { // clears the sticky error + backoff
		t.Fatalf("heal: %v", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.WaitCheckpoints(); err != nil {
		t.Fatalf("checkpoint after heal: %v", err)
	}
	if err := sys.Health(); err != nil {
		t.Fatalf("health after heal: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyRepairIsDurableOrAProblem: `verify -repair` may say Repaired
// only once the repair is fsynced — a crash right after must not bring the
// torn tail back — and a repair whose fsync fails is a Problem.
func TestVerifyRepairIsDurableOrAProblem(t *testing.T) {
	mem := vfs.NewMemFS()
	sys, err := adept2.Open("wal", adept2.WithOrg(sim.Org()), adept2.WithVFS(mem))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := mem.OpenFile("wal", os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn-tail-garbage")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	noSync := vfs.NewFaultFS(mem, func(n int64, op vfs.OpRef) vfs.Decision {
		if op.Kind == vfs.OpSync {
			return vfs.Decision{Err: vfs.ErrInjected}
		}
		return vfs.Decision{}
	})
	rep := adept2.VerifyLayout("wal", true, adept2.WithVFS(noSync))
	if rep.OK() || rep.Shards[0].Repaired || !strings.Contains(rep.Problems[0].Error(), "tail repair") {
		t.Fatalf("repair with a failing fsync: repaired=%v problems=%q", rep.Shards[0].Repaired, rep.Problems)
	}

	mem.Crash() // the truncate nothing synced is lost with the crash
	rep = adept2.VerifyLayout("wal", true, adept2.WithVFS(mem))
	if !rep.OK() || !rep.Shards[0].Repaired {
		t.Fatalf("repair on a healthy disk: %+v", rep)
	}
	mem.Crash()
	rep = adept2.VerifyLayout("wal", false, adept2.WithVFS(mem))
	if !rep.OK() || rep.Shards[0].TornBytes != 0 || rep.Shards[0].LastSeq != 1 {
		t.Fatalf("after a crash the reported repair is gone: %+v", rep)
	}
}
