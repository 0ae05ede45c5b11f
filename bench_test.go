// Benchmarks regenerating the evaluation artifacts of the ADEPT2 paper:
// one family per figure plus the ablations E4–E8. They are the only copy
// of these experiments; CI runs each for one iteration.
package adept2_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"adept2"
	"adept2/internal/change"
	"adept2/internal/compliance"
	"adept2/internal/durable"
	"adept2/internal/engine"
	"adept2/internal/evolution"
	"adept2/internal/graph"
	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/sim"
	"adept2/internal/state"
	"adept2/internal/storage"
	"adept2/internal/verify"
	"adept2/internal/worklist"
)

// --- Fig. 1 / E1: compliance decision cost -------------------------------

// benchLoopInstance prepares a loop-process instance with the given number
// of completed loop iterations (history length grows linearly).
func benchLoopInstance(b *testing.B, iterations int) (*engine.Engine, *engine.Instance) {
	b.Helper()
	e := engine.New(sim.Org())
	if err := e.Deploy(sim.LoopProcess()); err != nil {
		b.Fatal(err)
	}
	inst, err := e.CreateInstance("loopy", 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := sim.DriveLoopIterations(e, inst, iterations); err != nil {
		b.Fatal(err)
	}
	return e, inst
}

// BenchmarkFig1ComplianceFast measures the per-operation fast compliance
// conditions; the cost must stay flat as the history grows.
func BenchmarkFig1ComplianceFast(b *testing.B) {
	ops := sim.LoopProcessTypeChange()
	for _, iters := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("iters=%d", iters), func(b *testing.B) {
			_, inst := benchLoopInstance(b, iters)
			snap, _ := inst.Snapshot()
			v := inst.View()
			ctx := &change.Context{View: v, Marking: new(state.Marking), Stats: new(history.Stats), Store: snap.Store}
			if err := ctx.Marking.Import(v, snap.Marking); err != nil {
				b.Fatal(err)
			}
			ctx.Stats.Import(v.Topology(), snap.Stats)
			b.ReportMetric(float64(len(inst.HistoryEvents())), "history-events")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := compliance.CheckFast(ctx, ops); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig1ComplianceReplay measures the ground-truth replay checker;
// its cost grows with the history length.
func BenchmarkFig1ComplianceReplay(b *testing.B) {
	ops := sim.LoopProcessTypeChange()
	target := sim.LoopProcess()
	for _, op := range ops {
		if err := op.ApplyTo(target); err != nil {
			b.Fatal(err)
		}
	}
	targetInfo, err := graph.Analyze(target)
	if err != nil {
		b.Fatal(err)
	}
	baseInfo, err := graph.Analyze(sim.LoopProcess())
	if err != nil {
		b.Fatal(err)
	}
	for _, iters := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("iters=%d", iters), func(b *testing.B) {
			_, inst := benchLoopInstance(b, iters)
			events := inst.HistoryEvents()
			b.ReportMetric(float64(len(events)), "history-events")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reduced := history.ReduceInPlace(baseInfo, slices.Clone(events))
				if _, err := compliance.Replay(target, targetInfo, reduced); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHistoryReads measures what the three readers of the execution
// history pay per instance over one 20 000-instance population: a
// compliance worker (reduce + Replayer.Replay through one reused scratch,
// the call shape of evolution's migration worker and of bench/layers.go),
// a System.Mine scan, and a checkpoint's durable.Stage. The history is
// stored packed and decoded to be read; this is the check that reading it
// costs no more than it did while every event was a heap object (run with
// -cpu 1 and alternate the parent's binary, which compiles this file as it
// stands).
func BenchmarkHistoryReads(b *testing.B) {
	const n = 20000
	sys := adept2.New(adept2.WithOrg(sim.Org()))
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		b.Fatal(err)
	}
	eng := adept2.EngineOf(sys)
	insts, err := sim.BuildPopulation(eng, rand.New(rand.NewSource(1)), sim.DefaultPopulationOpts(n))
	if err != nil {
		b.Fatal(err)
	}
	target, err := evolution.NewManager(eng).DeriveVersion("online_order", sim.OnlineOrderTypeChange())
	if err != nil {
		b.Fatal(err)
	}
	info, err := graph.Analyze(target)
	if err != nil {
		b.Fatal(err)
	}
	perInstance := func(b *testing.B, pass func()) {
		pass() // scratch grown, symbols and block analyses cached
		runtime.GC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pass()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/instance")
	}
	b.Run("replay", func(b *testing.B) {
		var reduced []*history.Event
		var rp compliance.Replayer
		perInstance(b, func() {
			for _, inst := range insts {
				err := inst.Mutate(func(mx *engine.Mutable) error {
					blocks, err := mx.Blocks()
					if err != nil {
						return err
					}
					reduced = history.ReduceInto(blocks, mx.History().Events(), reduced)
					// A state conflict is an answer, not a failure.
					_, _ = rp.Replay(target, info, reduced)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("mine", func(b *testing.B) {
		perInstance(b, func() {
			rep, err := sys.Mine(context.Background(), adept2.MineOptions{})
			if err != nil || rep.Instances != n {
				b.Fatalf("mined %d instances, want %d: %v", rep.Instances, n, err)
			}
		})
	})
	b.Run("stage", func(b *testing.B) {
		perInstance(b, func() { _ = durable.Stage(eng, 0) })
	})
}

// --- Fig. 2 / E2: biased-instance representation -------------------------

// fig2Rep is one of the biased-instance representations Fig. 2 compares,
// built from one instance's delta over its base schema: the overlay the
// engine keeps (hybrid), a standalone copy of its view (full copy), and
// the recorded ops alone, re-applied to the base on every access
// (on-the-fly). keep builds what the representation holds for an instance
// beside its recorded ops, which every representation keeps; view reads
// the instance's schema from it as an access does.
type fig2Rep struct {
	name string
	keep func(inst *engine.Instance, base *model.Schema) (any, error)
	view func(inst *engine.Instance, base *model.Schema, kept any) (model.SchemaView, error)
}

var fig2Reps = []fig2Rep{
	{"hybrid",
		func(inst *engine.Instance, base *model.Schema) (any, error) {
			ov, err := engine.BuildOverlay(base, inst.BiasOps())
			if err != nil {
				return nil, err
			}
			info, err := graph.Analyze(ov) // builds the view's topology too
			return []any{ov, info}, err
		},
		func(inst *engine.Instance, _ *model.Schema, _ any) (model.SchemaView, error) { return inst.View(), nil }},
	{"full-copy",
		func(inst *engine.Instance, _ *model.Schema) (any, error) {
			v := inst.View()
			s, err := storage.Materialize(v, v.SchemaID(), v.TypeName(), v.Version())
			if err != nil {
				return nil, err
			}
			info, err := graph.Analyze(s)
			return []any{s, info}, err
		},
		func(_ *engine.Instance, _ *model.Schema, kept any) (model.SchemaView, error) {
			return kept.([]any)[0].(*model.Schema), nil
		}},
	{"on-the-fly",
		func(*engine.Instance, *model.Schema) (any, error) { return nil, nil },
		func(inst *engine.Instance, base *model.Schema, _ any) (model.SchemaView, error) {
			s := base.Clone()
			for _, op := range inst.BiasOps() {
				if err := op.ApplyTo(s); err != nil {
					return nil, err
				}
			}
			return s, nil
		}},
}

// BenchmarkFig2ViewAccess measures the schema-access cost of each
// representation (the read path every engine operation takes) for an
// instance carrying Fig. 1's bias of I2.
func BenchmarkFig2ViewAccess(b *testing.B) {
	for _, rep := range fig2Reps {
		b.Run(rep.name, func(b *testing.B) {
			e := engine.New(sim.Org())
			if err := e.Deploy(sim.OnlineOrder()); err != nil {
				b.Fatal(err)
			}
			inst, err := e.CreateInstance("online_order", 0)
			if err != nil {
				b.Fatal(err)
			}
			if err := change.ApplyAdHoc(inst, sim.OnlineOrderBiasI2()...); err != nil {
				b.Fatal(err)
			}
			base, _ := e.Schema("online_order", 1)
			kept, err := rep.keep(inst, base)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var sink int
			for i := 0; i < b.N; i++ {
				v, err := rep.view(inst, base, kept)
				if err != nil {
					b.Fatal(err)
				}
				sink += len(v.NodeIDs())
			}
			_ = sink
		})
	}
}

// BenchmarkFig2BiasMemory reports what each representation holds per
// biased instance of a 2 000-instance population beside the recorded ops
// (bytes/op is meaningless here; the custom metric carries the result):
// heap-bytes/biased-inst is the live heap that keeping it for every biased
// instance adds — the view's index and block analysis with the overlay or
// the full copy, nothing for on-the-fly.
func BenchmarkFig2BiasMemory(b *testing.B) {
	for _, rep := range fig2Reps {
		b.Run(rep.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := engine.New(sim.Org())
				if err := e.Deploy(sim.OnlineOrder()); err != nil {
					b.Fatal(err)
				}
				insts, err := sim.BuildPopulation(e, rand.New(rand.NewSource(1)), sim.DefaultPopulationOpts(2000))
				if err != nil {
					b.Fatal(err)
				}
				base, _ := e.Schema("online_order", 1)
				before := liveHeap()
				var kept []any
				for _, inst := range insts {
					if !inst.Biased() {
						continue
					}
					k, err := rep.keep(inst, base)
					if err != nil {
						b.Fatal(err)
					}
					kept = append(kept, k)
				}
				held := liveHeap()
				if len(kept) > 0 {
					b.ReportMetric(float64(held-before)/float64(len(kept)), "heap-bytes/biased-inst")
				}
				runtime.KeepAlive(insts)
				runtime.KeepAlive(kept)
			}
		})
	}
}

// --- Fig. 3 / E3: population migration -----------------------------------

// BenchmarkFig3Migration migrates a freshly built population per
// iteration; us/instance is the headline number ("thousands of instances
// on the fly").
func BenchmarkFig3Migration(b *testing.B) {
	for _, n := range []int{200, 1000} {
		for _, mode := range []evolution.CheckMode{evolution.FastCheck, evolution.ReplayCheck} {
			b.Run(fmt.Sprintf("n=%d/%s", n, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					e := engine.New(sim.Org())
					if err := e.Deploy(sim.OnlineOrder()); err != nil {
						b.Fatal(err)
					}
					rng := rand.New(rand.NewSource(1))
					if _, err := sim.BuildPopulation(e, rng, sim.DefaultPopulationOpts(n)); err != nil {
						b.Fatal(err)
					}
					mgr := evolution.NewManager(e)
					b.StartTimer()
					report, err := mgr.Evolve("online_order", sim.OnlineOrderTypeChange(), evolution.Options{Mode: mode})
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					b.ReportMetric(float64(report.Elapsed.Microseconds())/float64(report.Total()), "us/instance")
					b.StartTimer()
				}
			})
		}
	}
}

// --- E4: buildtime verification -------------------------------------------

// BenchmarkVerify measures the full buildtime check suite across schema
// sizes, and on the view of an instance carrying Fig. 1's bias of I2 under
// the hybrid representation — an overlay, whose whole-view lists are built
// per call (allocs/op is what a check builds).
func BenchmarkVerify(b *testing.B) {
	b.Run("biased", func(b *testing.B) {
		e := engine.New(sim.Org())
		if err := e.Deploy(sim.OnlineOrder()); err != nil {
			b.Fatal(err)
		}
		inst, err := e.CreateInstance("online_order", 0)
		if err != nil {
			b.Fatal(err)
		}
		if err := change.ApplyAdHoc(inst, sim.OnlineOrderBiasI2()...); err != nil {
			b.Fatal(err)
		}
		v := inst.View()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res := verify.Check(v); !res.OK() {
				b.Fatal(res.Err())
			}
		}
	})
	for _, depth := range []int{2, 3, 4} {
		rng := rand.New(rand.NewSource(7))
		opts := sim.DefaultSchemaOpts()
		opts.MaxDepth = depth
		opts.MaxSeq = 5
		s := sim.RandomSchema(rng, fmt.Sprintf("bench%d", depth), opts)
		b.Run(fmt.Sprintf("nodes=%d", len(s.Nodes())), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := verify.Check(s); !res.OK() {
					b.Fatal(res.Err())
				}
			}
		})
	}
}

// --- Worklist reads under writes -------------------------------------------

// BenchmarkWorklistPageAfterWrite measures a worklist read under writes —
// the traffic of a client polling pages while commands run: each op offers
// an item and withdraws it again, then reads one 50-item page of a user
// who holds n offered items.
func BenchmarkWorklistPageAfterWrite(b *testing.B) {
	users := []string{"ann", "cyn"}
	for _, n := range []int{2000, 40000} {
		b.Run(fmt.Sprintf("items=%d", n), func(b *testing.B) {
			wl := worklist.NewManager()
			for i := 0; i < n; i++ {
				if _, err := wl.Offer(fmt.Sprintf("inst-%06d", i), "get_order", "clerk", users); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := wl.Offer("inst-001000a", "get_order", "clerk", users); err != nil {
					b.Fatal(err)
				}
				wl.Withdraw("inst-001000a", "get_order")
				if items, _ := wl.ItemsForPage("ann", "", 50); len(items) != 50 {
					b.Fatalf("a page of %d items, want 50", len(items))
				}
			}
		})
	}
}

// --- E5: ad-hoc change latency --------------------------------------------

// BenchmarkAdHocChange measures the full atomic ad-hoc change round trip
// (trial overlay + verification + state conditions + install +
// adaptation) on a fresh instance.
func BenchmarkAdHocChange(b *testing.B) {
	e := engine.New(sim.Org())
	if err := e.Deploy(sim.OnlineOrder()); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		inst, err := e.CreateInstance("online_order", 0)
		if err != nil {
			b.Fatal(err)
		}
		op := &change.SerialInsert{
			Node: &model.Node{ID: fmt.Sprintf("x%d", i), Type: model.NodeActivity, Role: "sales", Template: "x"},
			Pred: "collect_data",
			Succ: "confirm_order",
		}
		b.StartTimer()
		if err := change.ApplyAdHoc(inst, op); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: state adaptation ablation ----------------------------------------

// BenchmarkStateAdaptation compares the incremental marking adaptation
// with full history replay over one population of 500 online orders.
// "incremental" times the Evolve that checks and migrates them (its state
// adaptation is state.Adapt and the cascade). "replay" times what replay
// adaptation would have added to it: every instance's history reduced and
// replayed on the new version by compliance.Replayer, the result
// discarded (an instance the change does not fit is refused there too).
func BenchmarkStateAdaptation(b *testing.B) {
	populate := func(b *testing.B) *engine.Engine {
		b.Helper()
		e := engine.New(sim.Org())
		if err := e.Deploy(sim.OnlineOrder()); err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		if _, err := sim.BuildPopulation(e, rng, sim.DefaultPopulationOpts(500)); err != nil {
			b.Fatal(err)
		}
		return e
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			mgr := evolution.NewManager(populate(b))
			b.StartTimer()
			if _, err := mgr.Evolve("online_order", sim.OnlineOrderTypeChange(), evolution.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replay", func(b *testing.B) {
		var (
			rp      compliance.Replayer
			reduced []*history.Event
		)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := populate(b)
			next, err := evolution.NewManager(e).DeriveVersion("online_order", sim.OnlineOrderTypeChange())
			if err != nil {
				b.Fatal(err)
			}
			if err := e.Deploy(next); err != nil {
				b.Fatal(err)
			}
			to, _ := e.Deployed("online_order", next.Version())
			insts := e.InstancesOf("online_order", 1)
			b.StartTimer()
			for _, inst := range insts {
				_ = inst.Mutate(func(mx *engine.Mutable) error {
					blocks, _ := mx.Blocks()
					reduced = history.ReduceInto(blocks, mx.History().Events(), reduced)
					_, _ = rp.Replay(to.Schema, to.Blocks, reduced)
					return nil
				})
			}
		}
	})
}

// --- E7: biased migration --------------------------------------------------

// BenchmarkBiasedMigration isolates migration of biased instances: each bias must
// be rebased onto the new version as an overlay and verified there.
func BenchmarkBiasedMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := engine.New(sim.Org())
		if err := e.Deploy(sim.OnlineOrder()); err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		opts := sim.DefaultPopulationOpts(300)
		opts.BiasedFrac = 1.0
		opts.ConflictingBiasFrac = 0.5
		if _, err := sim.BuildPopulation(e, rng, opts); err != nil {
			b.Fatal(err)
		}
		mgr := evolution.NewManager(e)
		b.StartTimer()
		if _, err := mgr.Evolve("online_order", sim.OnlineOrderTypeChange(), evolution.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: user operations, alone and under migration load -------------------

// BenchmarkEngineComplete measures the plain user-operation path, and the
// same operation while a bulk Evolve of 5 000 instances runs beside it on
// GOMAXPROCS workers, as every evolve does ("on-the-fly ... avoid performance penalties"): 200 fresh
// instances are the users' working set and us/user-op, their mean latency,
// carries the result (ns/op there is a whole round, population build
// included: stopping the clock around it would run hundreds of rounds).
func BenchmarkEngineComplete(b *testing.B) {
	newEngine := func(b *testing.B) *engine.Engine {
		e := engine.New(sim.Org())
		if err := e.Deploy(sim.OnlineOrder()); err != nil {
			b.Fatal(err)
		}
		return e
	}
	fresh := func(b *testing.B, e *engine.Engine, n int) []*engine.Instance {
		insts := make([]*engine.Instance, n)
		for i := range insts {
			inst, err := e.CreateInstance("online_order", 0)
			if err != nil {
				b.Fatal(err)
			}
			insts[i] = inst
		}
		return insts
	}
	complete := func(b *testing.B, e *engine.Engine, insts []*engine.Instance) {
		for _, inst := range insts {
			if err := e.CompleteActivity(inst.ID(), "get_order", "ann", map[string]any{"out": "o"}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("baseline", func(b *testing.B) {
		e := newEngine(b)
		insts := fresh(b, e, b.N)
		b.ResetTimer()
		complete(b, e, insts)
	})
	b.Run("during-migration", func(b *testing.B) {
		const population, working = 5000, 200
		var user time.Duration
		for i := 0; i < b.N; i++ {
			e := newEngine(b)
			if _, err := sim.BuildPopulation(e, rand.New(rand.NewSource(1)), sim.DefaultPopulationOpts(population)); err != nil {
				b.Fatal(err)
			}
			work := fresh(b, e, working)
			migrated := make(chan error, 1)
			go func() {
				_, err := evolution.NewManager(e).Evolve("online_order", sim.OnlineOrderTypeChange(), evolution.Options{})
				migrated <- err
			}()
			start := time.Now()
			// A migrated instance is on v2, where get_order still exists.
			complete(b, e, work)
			user += time.Since(start)
			if err := <-migrated; err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(user.Microseconds())/float64(working*b.N), "us/user-op")
	})
}
