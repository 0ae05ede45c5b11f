package adept2_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"adept2"
	"adept2/internal/rpc"
	"adept2/internal/sim"
	"adept2/internal/state"
)

// driver feeds a seeded random command stream over the Fig. 1 type into
// a System through all three submission paths (Submit, SubmitAsync,
// SubmitBatch), picked at random per step, and keeps a sim.Ledger of what
// the system acknowledged: a nil Submit or SubmitBatch error, or a nil
// receipt Wait. A refusal mutates nothing and journals nothing, so the
// driver proposes sloppily and live state and journal still agree. A
// CodeWedged or CodeInternal reply kills it: it stops driving, and the
// test fails unless the driver was built for a dying disk (mayDie).
type driver struct {
	t        *testing.T
	sys      *adept2.System
	rng      *rand.Rand
	ctx      context.Context
	mayDie   bool
	insts    []string
	receipts []receipt
	ledger   sim.Ledger
	applied  int
	evolves  int    // extra_N evolutions proposed (names the inserted node)
	dead     bool   // a durability failure ended the walk
	killedBy string // the command whose reply killed the driver
}

// receipt is an outstanding SubmitAsync and its command's name.
type receipt struct {
	*adept2.Receipt
	cmd string
}

func newDriver(t *testing.T, sys *adept2.System, seed int64, mayDie bool) *driver {
	t.Helper()
	d := &driver{t: t, sys: sys, rng: rand.New(rand.NewSource(seed)), ctx: context.Background(), mayDie: mayDie}
	_, err := sys.Submit(d.ctx, &adept2.Deploy{Schema: sim.OnlineOrder()})
	d.note("deploy", nil, err)
	return d
}

// userFor picks the first user holding the role ("" for a role-less node).
func (d *driver) userFor(role string) string {
	if users := d.sys.Org().UsersInRole(role); len(users) > 0 {
		return users[0]
	}
	return ""
}

// proposeComplete builds a CompleteActivity for a random activated or
// running node of the instance (nil when it has none).
func (d *driver) proposeComplete(instID string) adept2.Command {
	inst, ok := d.sys.Instance(instID)
	if !ok {
		return nil
	}
	v := inst.View()
	var ready []string
	for _, id := range v.NodeIDs() {
		if st := inst.NodeState(id); st == state.Activated || st == state.Running {
			ready = append(ready, id)
		}
	}
	if len(ready) == 0 {
		return nil
	}
	node := ready[d.rng.Intn(len(ready))]
	n, _ := v.Node(node)
	var outputs map[string]any
	if node == "get_order" {
		outputs = map[string]any{"out": fmt.Sprintf("o-%d", d.rng.Int())}
	}
	return &adept2.CompleteActivity{Instance: instID, Node: node, User: d.userFor(n.Role), Outputs: outputs}
}

// propose builds the next random command and names the instance it
// targets ("" for a type-level command); the command is nil when there is
// nothing sensible to do. The mix holds data commands and the control
// commands Evolve and Undo, so the crash-point test also kills the store
// mid-evolution and mid-undo.
func (d *driver) propose() (adept2.Command, string) {
	inst := ""
	if len(d.insts) > 0 {
		inst = d.insts[d.rng.Intn(len(d.insts))]
	}
	switch r := d.rng.Intn(100); {
	case r < 15 || inst == "":
		return &adept2.CreateInstance{TypeName: "online_order"}, ""
	case r < 45:
		return d.proposeComplete(inst), inst
	case r < 52:
		return &adept2.Suspend{Instance: inst}, inst
	case r < 59:
		return &adept2.Resume{Instance: inst}, inst
	case r < 71:
		return &adept2.AdHoc{Instance: inst, Ops: sim.OnlineOrderBiasI2()}, inst
	case r < 85: // an unbiased instance refuses an undo before the disk sees it
		for _, id := range d.insts {
			if i, ok := d.sys.Instance(id); ok && i.Biased() {
				inst = id
				break
			}
		}
		return &adept2.Undo{Instance: inst, All: d.rng.Intn(2) == 0}, inst
	case r < 89:
		return &adept2.Evolve{TypeName: "online_order", Ops: sim.OnlineOrderTypeChange()}, ""
	default:
		// Serial-insert a fresh node into the type's head. The chain is
		// counted on proposal, not success: a link whose predecessor never
		// landed is refused, which keeps the stream deterministic across
		// crash sites.
		d.evolves++
		pred := "get_order"
		if d.evolves > 1 {
			pred = fmt.Sprintf("extra_%d", d.evolves-1)
		}
		name := fmt.Sprintf("extra_%d", d.evolves)
		return &adept2.Evolve{TypeName: "online_order", Ops: []adept2.Operation{
			&adept2.SerialInsert{
				Node: &adept2.Node{ID: name, Name: name, Type: adept2.NodeActivity,
					Role: "worker", Template: name},
				Pred: pred,
				Succ: "collect_data",
			},
		}}, ""
	}
}

// note records the reply to the named command: a created instance joins
// the pool, a refusal is part of the walk, CodeWedged or CodeInternal
// kills the driver, and an untyped error fails the test. It reports
// success.
func (d *driver) note(cmd string, res any, err error) bool {
	if err != nil {
		var e *adept2.Error
		if !errors.As(err, &e) {
			d.t.Fatalf("untyped command error: %v", err)
		}
		if e.Code == adept2.CodeWedged || e.Code == adept2.CodeInternal {
			if !d.mayDie {
				d.t.Fatalf("%s killed the driver on a store that may not fail: %v", cmd, err)
			}
			if !d.dead {
				d.dead, d.killedBy = true, cmd
			}
		}
		return false
	}
	d.applied++
	if inst, ok := res.(*adept2.Instance); ok {
		d.insts = append(d.insts, inst.ID())
	}
	return true
}

// ack records an acknowledged submission: its creates, and the history of
// the instances it targeted. Every earlier record of such an instance
// lies on its shard below the acknowledged one, so it is durable too.
func (d *driver) ack(results []any, targets []string) {
	for _, res := range results {
		if inst, ok := res.(*adept2.Instance); ok {
			d.ledger.Created(inst.ID())
			targets = append(targets, inst.ID())
		}
	}
	d.ledger.Ack(d.sys, targets...)
}

// step submits one random command, or a batch of one to four, through a
// random path.
func (d *driver) step() {
	if d.dead {
		return
	}
	switch d.rng.Intn(3) {
	case 0: // blocking: a nil error is the acknowledgement
		cmd, inst := d.propose()
		if cmd == nil {
			return
		}
		res, err := d.sys.Submit(d.ctx, cmd)
		if d.note(cmd.CommandName(), res, err) {
			d.ack([]any{res}, []string{inst})
		}
	case 1: // pipelined: acknowledged when the receipt resolves
		cmd, _ := d.propose()
		if cmd == nil {
			return
		}
		r, err := d.sys.SubmitAsync(d.ctx, cmd)
		if err != nil {
			d.note(cmd.CommandName(), nil, err)
			return
		}
		d.note(cmd.CommandName(), r.Result(), nil)
		d.receipts = append(d.receipts, receipt{r, cmd.CommandName()})
	case 2: // batch: a nil error acknowledges every result
		n := 1 + d.rng.Intn(4)
		var batch []adept2.Command
		var targets []string
		for i := 0; i < n; i++ {
			if cmd, inst := d.propose(); cmd != nil {
				batch, targets = append(batch, cmd), append(targets, inst)
			}
		}
		if len(batch) == 0 {
			return
		}
		results, err := d.sys.SubmitBatch(d.ctx, batch)
		for i, res := range results {
			d.note(batch[i].CommandName(), res, nil)
		}
		if err != nil { // the results are the staged prefix: batch[len(results)] was refused
			d.note(batch[min(len(results), len(batch)-1)].CommandName(), nil, err)
			return
		}
		d.ack(results, targets)
	}
	if len(d.receipts) >= 16 {
		d.drain()
	}
}

// drain awaits every outstanding receipt. A resolved receipt acknowledges
// its create and the watermark that covers it, not its instance's history:
// later commands on the instance may not be durable yet.
func (d *driver) drain() {
	for _, r := range d.receipts {
		if err := r.Wait(d.ctx); err != nil {
			if d.note(r.cmd, nil, err); !d.dead {
				d.t.Fatalf("receipt of %s: %v", r.cmd, err)
			}
			continue
		}
		if w := d.sys.DurableWatermark(r.Shard()); w < r.Seq() {
			d.t.Fatalf("receipt of %s resolved at shard %d seq %d above the durable watermark %d", r.cmd, r.Shard(), r.Seq(), w)
		}
		if inst, ok := r.Result().(*adept2.Instance); ok {
			d.ledger.Created(inst.ID())
		}
		d.ledger.Ack(d.sys)
	}
	d.receipts = d.receipts[:0]
}

// run drives steps and drains the receipts left.
func (d *driver) run(steps int) {
	for i := 0; i < steps && !d.dead; i++ {
		d.step()
	}
	d.drain()
}

// TestDifferentialCommandRecovery is the PR 5 acceptance property test:
// random command sequences submitted through Submit, SubmitAsync, and
// SubmitBatch, then a crash (close + reopen from the journal), must
// reproduce the exact live engine state — at one shard and at four, with
// background checkpoints racing the traffic.
func TestDifferentialCommandRecovery(t *testing.T) {
	layouts := []struct {
		name string
		cfg  adept2.CheckpointConfig
	}{
		{"shards=1", adept2.CheckpointConfig{Every: 24}},
		{"shards=4", adept2.CheckpointConfig{Every: 24, Shards: 4}},
	}
	for _, l := range layouts {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", l.name, seed), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "wal.ndjson")
				sys := openCheckpointed(t, path, l.cfg)
				d := newDriver(t, sys, seed, false)
				d.run(150)
				if d.applied < 50 {
					t.Fatalf("random walk applied only %d commands — driver degenerated", d.applied)
				}
				if err := sys.WaitCheckpoints(); err != nil {
					t.Fatal(err)
				}
				if err := sys.Health(); err != nil {
					t.Fatal(err)
				}
				if err := sys.Close(); err != nil {
					t.Fatal(err)
				}

				got := openCheckpointed(t, path, l.cfg)
				defer got.Close()
				assertSameState(t, sys, got)
				if err := d.ledger.Check(got); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestDifferentialConcurrentAsyncRecovery drives pipelined async
// submissions from several goroutines (disjoint instances, so the
// interleaving commutes), with control commands racing through the
// exclusive barrier, then recovers and compares. Run under -race in CI.
func TestDifferentialConcurrentAsyncRecovery(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.ndjson")
			cfg := adept2.CheckpointConfig{Every: 32, Shards: shards}
			sys := openCheckpointed(t, path, cfg)
			if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()

			const workers = 6
			ids := make([]string, workers)
			for w := range ids {
				res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
				if err != nil {
					t.Fatal(err)
				}
				inst := res.(*adept2.Instance)
				ids[w] = inst.ID()
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var receipts []*adept2.Receipt
					submit := func(cmd adept2.Command) {
						r, err := sys.SubmitAsync(ctx, cmd)
						if err != nil {
							t.Error(err)
							return
						}
						receipts = append(receipts, r)
					}
					submit(&adept2.CompleteActivity{Instance: ids[w], Node: "get_order", User: "ann",
						Outputs: map[string]any{"out": fmt.Sprintf("w%d", w)}})
					for i := 0; i < 24; i++ {
						submit(&adept2.Suspend{Instance: ids[w]})
						submit(&adept2.Resume{Instance: ids[w]})
					}
					for _, r := range receipts {
						if err := r.Wait(ctx); err != nil {
							t.Error(err)
						}
					}
				}(w)
			}
			// Control traffic through the exclusive barrier.
			for i := 0; i < 4; i++ {
				if _, err := sys.Submit(context.Background(), &adept2.AddUser{User: &adept2.User{ID: fmt.Sprintf("u%d", i), Roles: []string{"clerk"}}}); err != nil {
					t.Fatal(err)
				}
			}
			wg.Wait()
			if err := sys.WaitCheckpoints(); err != nil {
				t.Fatal(err)
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}

			got := openCheckpointed(t, path, cfg)
			defer got.Close()
			assertSameState(t, sys, got)
		})
	}
}

// TestDifferentialRemoteLocal drives the identical seeded command
// stream into an in-process system and into a second system behind the
// networked command plane (cycling the remote submission mode across
// sync, async-receipt, and batch), asserting that every step agrees on
// outcome and taxonomy code. The remote system is then drained,
// crashed (closed), and recovered from its journal — its state must
// match the local system exactly: the wire plane neither loses nor
// reorders anything the in-process API would have preserved.
func TestDifferentialRemoteLocal(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ctx := context.Background()
			cfg := adept2.CheckpointConfig{Every: 24, Shards: 4}
			local, err := adept2.Open(filepath.Join(t.TempDir(), "local.ndjson"),
				adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg))
			if err != nil {
				t.Fatal(err)
			}
			defer local.Close()
			remotePath := filepath.Join(t.TempDir(), "remote.ndjson")
			remote, err := adept2.Open(remotePath,
				adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg))
			if err != nil {
				t.Fatal(err)
			}
			srv, err := rpc.NewServer(remote, rpc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cli, err := rpc.Dial(ctx, srv.URL())
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()

			d := newDriver(t, local, seed, false) // deploys on local
			if _, err := cli.Submit(ctx, &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
				t.Fatal(err)
			}

			var receipts []*rpc.Receipt
			for i := 0; i < 120; i++ {
				cmd, _ := d.propose()
				if cmd == nil {
					continue
				}
				lres, lerr := local.Submit(ctx, cmd)
				d.note(cmd.CommandName(), lres, lerr)
				var rerr error
				mode := i % 3
				switch mode {
				case 0:
					_, rerr = cli.Submit(ctx, cmd)
				case 1:
					var rcpt *rpc.Receipt
					rcpt, rerr = cli.SubmitAsync(ctx, cmd)
					if rerr == nil {
						receipts = append(receipts, rcpt)
					}
				case 2:
					_, rerr = cli.SubmitBatch(ctx, []adept2.Command{cmd})
				}
				if (lerr == nil) != (rerr == nil) {
					t.Fatalf("step %d (%s): local err %v, remote err %v", i, cmd.CommandName(), lerr, rerr)
				}
				if lerr != nil {
					var le, re *adept2.Error
					if !errors.As(lerr, &le) || !errors.As(rerr, &re) || le.Code != re.Code {
						t.Fatalf("step %d (%s): taxonomy diverged across the wire: local %v, remote %v",
							i, cmd.CommandName(), lerr, rerr)
					}
				}
			}
			if d.applied < 40 {
				t.Fatalf("random walk applied only %d commands — driver degenerated", d.applied)
			}
			for _, rcpt := range receipts {
				if err := rcpt.Wait(ctx); err != nil {
					t.Fatalf("remote receipt: %v", err)
				}
			}

			// Drain the wire plane, crash the remote system, recover it.
			if err := srv.Close(ctx); err != nil {
				t.Fatal(err)
			}
			if err := remote.WaitCheckpoints(); err != nil {
				t.Fatal(err)
			}
			if err := remote.Close(); err != nil {
				t.Fatal(err)
			}
			recovered, err := adept2.Open(remotePath,
				adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg))
			if err != nil {
				t.Fatal(err)
			}
			defer recovered.Close()
			assertSameState(t, local, recovered)
		})
	}
}
