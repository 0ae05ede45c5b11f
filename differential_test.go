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

// cmdDriver feeds a random command stream into a System through all
// three submission paths (Submit, SubmitAsync, SubmitBatch), picked at
// random per step. Command rejections are tolerated — a rejected command
// mutates nothing and journals nothing — so the driver can propose
// sloppily and still leave live state and journal in exact agreement.
type cmdDriver struct {
	t        *testing.T
	sys      *adept2.System
	rng      *rand.Rand
	ctx      context.Context
	insts    []string
	receipts []*adept2.Receipt
	applied  int
}

func newCmdDriver(t *testing.T, sys *adept2.System, seed int64) *cmdDriver {
	t.Helper()
	d := &cmdDriver{t: t, sys: sys, rng: rand.New(rand.NewSource(seed)), ctx: context.Background()}
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	return d
}

// userFor picks a user holding the node's role ("" for auto/role-less
// nodes, a non-candidate sometimes never — rejections are exercised by
// the random walk anyway via wrong node states).
func (d *cmdDriver) userFor(role string) string {
	if role == "" {
		return ""
	}
	org := d.sys.Org()
	for _, u := range []string{"ann", "bob"} {
		if _, ok := org.HasRole(u, role); ok {
			return u
		}
	}
	return "ann"
}

// proposeComplete builds a CompleteActivity for a random activated or
// running node of the instance (nil when it has none).
func (d *cmdDriver) proposeComplete(instID string) adept2.Command {
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

// propose builds the next random command. It may return nil (nothing
// sensible to do this step).
func (d *cmdDriver) propose() adept2.Command {
	pickInst := func() string {
		if len(d.insts) == 0 {
			return ""
		}
		return d.insts[d.rng.Intn(len(d.insts))]
	}
	switch r := d.rng.Intn(100); {
	case r < 20 || len(d.insts) == 0:
		return &adept2.CreateInstance{TypeName: "online_order"}
	case r < 60:
		return d.proposeComplete(pickInst())
	case r < 70:
		return &adept2.Suspend{Instance: pickInst()}
	case r < 80:
		return &adept2.Resume{Instance: pickInst()}
	case r < 88:
		return &adept2.AdHoc{Instance: pickInst(), Ops: sim.OnlineOrderBiasI2()}
	case r < 94:
		return &adept2.Undo{Instance: pickInst()}
	default:
		return &adept2.Evolve{TypeName: "online_order", Ops: sim.OnlineOrderTypeChange()}
	}
}

// note records the outcome of a submission: new instances join the pool,
// rejections are tolerated, unexpected error classes fail the test.
func (d *cmdDriver) note(res any, err error) {
	if err != nil {
		var e *adept2.Error
		if !errors.As(err, &e) {
			d.t.Fatalf("untyped command error: %v", err)
		}
		return
	}
	d.applied++
	if inst, ok := res.(*adept2.Instance); ok {
		d.insts = append(d.insts, inst.ID())
	}
}

// step submits one random command through a random path.
func (d *cmdDriver) step() {
	switch d.rng.Intn(3) {
	case 0: // blocking submit
		cmd := d.propose()
		if cmd == nil {
			return
		}
		d.note(d.sys.Submit(d.ctx, cmd))
	case 1: // pipelined async submit
		cmd := d.propose()
		if cmd == nil {
			return
		}
		r, err := d.sys.SubmitAsync(d.ctx, cmd)
		if err != nil {
			d.note(nil, err)
			return
		}
		d.note(r.Result(), nil)
		d.receipts = append(d.receipts, r)
	case 2: // batch of 1-4 commands
		n := 1 + d.rng.Intn(4)
		var batch []adept2.Command
		for i := 0; i < n; i++ {
			if cmd := d.propose(); cmd != nil {
				batch = append(batch, cmd)
			}
		}
		if len(batch) == 0 {
			return
		}
		results, err := d.sys.SubmitBatch(d.ctx, batch)
		for _, res := range results {
			d.note(res, nil)
		}
		if err != nil {
			d.note(nil, err)
		}
	}
	// Bound the receipt backlog; awaiting is also part of the contract.
	if len(d.receipts) >= 32 {
		d.drain()
	}
}

// drain awaits every outstanding receipt.
func (d *cmdDriver) drain() {
	for _, r := range d.receipts {
		if err := r.Wait(d.ctx); err != nil {
			d.t.Fatalf("receipt: %v", err)
		}
	}
	d.receipts = d.receipts[:0]
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
				sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(l.cfg))
				if err != nil {
					t.Fatal(err)
				}
				d := newCmdDriver(t, sys, seed)
				for i := 0; i < 150; i++ {
					d.step()
				}
				d.drain()
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

				got, err := adept2.Open(path, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(l.cfg))
				if err != nil {
					t.Fatal(err)
				}
				defer got.Close()
				assertSameState(t, sys, got)
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
			sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg))
			if err != nil {
				t.Fatal(err)
			}
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

			got, err := adept2.Open(path, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg))
			if err != nil {
				t.Fatal(err)
			}
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

			d := newCmdDriver(t, local, seed) // deploys on local
			if _, err := cli.Submit(ctx, &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
				t.Fatal(err)
			}

			var receipts []*rpc.Receipt
			for i := 0; i < 120; i++ {
				cmd := d.propose()
				if cmd == nil {
					continue
				}
				lres, lerr := local.Submit(ctx, cmd)
				d.note(lres, lerr)
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
				if lerr != nil && mode != 2 {
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
