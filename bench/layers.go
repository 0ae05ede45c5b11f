package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"adept2"
	"adept2/bench/countfs"
	"adept2/internal/change"
	"adept2/internal/compliance"
	"adept2/internal/durable"
	"adept2/internal/durable/sharded"
	"adept2/internal/engine"
	"adept2/internal/evolution"
	"adept2/internal/graph"
	"adept2/internal/history"
	"adept2/internal/persist"
	"adept2/internal/rollback"
	"adept2/internal/sim"
	"adept2/internal/verify"
)

// The traced run. End-to-end metrics never come from here: a traced run
// alternates untraced and traced passes (their difference is the tracing
// overhead), then times calls into each layer's public functions from
// outside, on the workload's own population and command stream.

// perLayer lists every per-layer metric a traced run reports, in the
// order of README.md's prediction table. A layer the workload does not
// exercise reports 0.
var perLayer = slices.Concat(layerTimings, []metric{
	// The ladder: the sync phase replayed against successively deeper stacks.
	{name: "engine.apply_us", unit: "us"},
	{name: "facade.submit_us", unit: "us"},
	{name: "facade.overhead_us", unit: "us"},
	{name: "facade.stage_us", unit: "us"},
	{name: "durable.wait_us", unit: "us"},
	{name: "durable.overhead_us", unit: "us"},
	{name: "rpc.submit_us", unit: "us"},
	{name: "rpc.overhead_us", unit: "us"},
	{name: "wire.encode_us", unit: "us"},
	{name: "wire.decode_us", unit: "us"},
	{name: "rpc.read_us", unit: "us"},
	{name: "rpc.allocs_per_cmd", unit: "count"},
	{name: "rpc.bytes_alloc_per_cmd", unit: "B"},
	{name: "rpc.cmd_p999_us", unit: "us"},
	{name: "worklist.page_us", unit: "us"},
	{name: "worklist.offered_items", unit: "count"},
	{name: "persist.append_us", unit: "us"},
	{name: "persist.bytes_per_record", unit: "B"},
	{name: "persist.scan_ms", unit: "ms"},
	{name: "persist.replay_us_per_record", unit: "us"},
	{name: "durable.fsyncs_per_cmd", unit: "count"},
	{name: "durable.batch_mean", unit: "count", higher: true},
	{name: "vfs.writes_per_cmd", unit: "count"},
	{name: "vfs.bytes_per_cmd", unit: "B"},
	{name: "vfs.syncs_per_cmd", unit: "count"},
	{name: "vfs.sync_us", unit: "us"},
	{name: "durable.capture_ms", unit: "ms"},
	{name: "durable.snapshot_write_ms", unit: "ms"},
	{name: "durable.snapshot_bytes", unit: "B"},
	{name: "durable.restore_ms", unit: "ms"},
	{name: "sharded.recover_ms", unit: "ms"},
	{name: "sharded.recover_ms_ncpu", unit: "ms"},
	{name: "change.adhoc_apply_us", unit: "us"},
	{name: "change.undo_p50_us", unit: "us"},
	{name: "verify.check_us", unit: "us"},
	{name: "compliance.fast_us_per_inst", unit: "us"},
	{name: "compliance.replay_us_per_inst", unit: "us"},
	{name: "evolution.migrate_fast_us_per_inst", unit: "us"},
	{name: "evolution.migrate_replay_us_per_inst", unit: "us"},
	{name: "evolution.migrate_us_per_inst_ncpu", unit: "us"},
	{name: "evolution.migrated", unit: "count", higher: true},
	{name: "evolution.state_conflict", unit: "count"},
	{name: "evolution.structural_conflict", unit: "count"},
	{name: "storage.bytes_per_biased_inst", unit: "B"},
	{name: "mining.scan_us_per_inst", unit: "us"},
	{name: "obs.overhead_us", unit: "us"},
	{name: "facade.cmd_p999_us", unit: "us"},
	{name: "proc.cpu_us_per_cmd", unit: "us"},
	{name: "proc.gc_cpu_frac", unit: "%"},
	{name: "proc.heap_peak_mb", unit: "MB"},
	{name: "bench.pass_spread", unit: "%"},
	{name: "bench.trace_overhead_pct", unit: "%"},
})

// rungSlices is how many sync slices a ladder rung replays: enough for its
// better decile to settle near a whole run's.
const rungSlices = 12

// cpuTime returns the process's user+system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func tracedRun(w workload, o options, report io.Writer) (*result, error) {
	if o.scale == 0 {
		o.scale = 1
	}
	sw := w.scaled(o.scale)
	proved, err := prove(w, o)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	plain, traced := &run{w: w}, &run{w: w}
	start := time.Now()
	for i := 0; ; i++ {
		if o.passes > 0 && i >= o.passes {
			break
		}
		if o.passes <= 0 && i > 0 && time.Since(start).Seconds() >= o.seconds/3 {
			break
		}
		for _, r := range []*run{plain, traced} {
			// Checkpoint and recovery run in the traced pass only: a span
			// around an Open that lasts seconds costs it nothing, and a
			// traced run has no time to recover twice.
			var t *tracer
			if r == traced {
				t = tr
			}
			pr, err := runPass(sw, o.seed, filepath.Join(o.dir, "pass"), w.recovers && r == traced, t)
			if err != nil {
				return nil, err
			}
			if err := r.add(pr); err != nil {
				return nil, err
			}
		}
	}
	out := map[string]float64{}
	for _, r := range []*run{traced, plain} {
		for name := range r.passes[0].layer {
			out[name] = median(r.layer(name))
		}
	}
	for _, name := range exactCounts {
		out[name] = float64(plain.passes[0].counts[name])
	}
	for _, m := range layerTimings {
		// Checkpoint and recovery ran in the traced passes only.
		vs := plain.samples(m.name)
		if len(vs) == 0 {
			vs = traced.samples(m.name)
		}
		out[m.name] = best(vs, m.higher)
	}
	out["proc.gc_cpu_frac"] *= 100
	p50 := plain.samples("cmd_p50_us")
	out["bench.pass_spread"] = 100 * (sorted(p50)[len(p50)-1] - sorted(p50)[0]) / median(p50)
	out["bench.trace_overhead_pct"] = 100 * (best(traced.samples("cmd_p50_us"), false) - best(p50, false)) / best(p50, false)
	if err := probeLayers(sw, o, out); err != nil {
		return nil, fmt.Errorf("%s: layer probes: %w", w.name, err)
	}
	path := filepath.Join(o.out, "trace-"+w.name+".json")
	if err := tr.write(path); err != nil {
		return nil, err
	}

	res := &result{Correct: true, Attempted: proved, Metrics: map[string]reported{}}
	for _, p := range append(plain.passes, traced.passes...) {
		res.Attempted += p.attempted
	}
	fmt.Fprintf(report, "workload %s, traced: %d untraced + %d traced passes, %d spans in %s\n", w.name, len(plain.passes), len(traced.passes), len(tr.spans), path)
	fmt.Fprintf(report, "%-38s %-6s %16s\n", "per-layer metric", "unit", "value")
	for _, m := range perLayer {
		v := out[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(report, "%-38s %-6s %16.4f\n", m.name, m.unit, v)
		res.Metrics[m.name] = reported{v, m.unit}
	}
	return res, nil
}

// engineDoor drives internal/engine and its sibling layers directly: the
// bodies of the façade's command types without barrier, metrics, record
// encode or journal — the ladder's bottom rung.
type engineDoor struct {
	eng *engine.Engine
	mgr *evolution.Manager
}

func newEngineDoor() engineDoor {
	eng := engine.New(nil)
	return engineDoor{eng, evolution.NewManager(eng)}
}

type durableAlready struct{}

func (durableAlready) Wait(context.Context) error { return nil }

func (d engineDoor) submit(cmd adept2.Command) (any, error) {
	switch c := cmd.(type) {
	case *adept2.AddUser:
		return nil, d.eng.Org().AddUser(c.User)
	case *adept2.Deploy:
		return nil, d.eng.Deploy(c.Schema)
	case *adept2.CreateInstance:
		return d.eng.CreateInstance(c.TypeName, c.Version)
	case *adept2.StartActivity:
		return nil, d.eng.StartActivityAt(c.Instance, c.Node, c.User, time.Now().UnixNano())
	case *adept2.CompleteActivity:
		return nil, d.eng.CompleteActivity(c.Instance, c.Node, c.User, c.Outputs, engine.WithCompletedAt(time.Now().UnixNano()))
	case *adept2.AdHoc:
		inst, _ := d.eng.Instance(c.Instance)
		return nil, change.ApplyAdHoc(inst, c.Ops...)
	case *adept2.Evolve:
		return d.mgr.Evolve(c.TypeName, c.Ops, c.Options)
	}
	return nil, fmt.Errorf("engine door: no direct call for %s", cmd.CommandName())
}

func (d engineDoor) stage(cmd adept2.Command) (waiter, error) {
	_, err := d.submit(cmd)
	return durableAlready{}, err
}

func (d engineDoor) batch(cmds []adept2.Command) error {
	for _, cmd := range cmds {
		if _, err := d.submit(cmd); err != nil {
			return err
		}
	}
	return nil
}

func (d engineDoor) worklist(user string) (int, error) {
	items, _ := d.eng.WorkItemsPage(user, "", pageSize)
	return len(items), nil
}

// rungStats is what one ladder rung measured: per sync slice the medians
// the end-to-end metrics are made of, so a rung's number is the same
// estimator as cmd_p50_us — the better decile over slices — and the two
// can be held against each other.
type rungStats struct {
	c                      *client
	p50, read, stage, wait []float64 // µs, one per slice
	allocs, allocBytes     []float64 // per command, one per slice
	all                    []time.Duration
}

// rung loads the workload's population through the door and replays its
// sync phase — after Evolve where the workload adapts first — so every
// rung sees the same commands on the same state.
func rung(w workload, seed int64, d door, split bool) (*rungStats, error) {
	c := newClient(w, seed, nil)
	c.d = d
	if err := c.load(c.m.build(w.pop), func() {}); err != nil {
		return nil, err
	}
	if w.adaptFirst {
		if _, err := c.evolve(); err != nil {
			return nil, err
		}
	}
	r := &rungStats{c: c}
	runtime.GC()
	for i := 0; i < rungSlices; i++ {
		st, err := c.sync(w.slice, split)
		if err != nil {
			return nil, err
		}
		r.p50, r.read = append(r.p50, quantileUS(st.lat, 0.5)), append(r.read, quantileUS(st.reads, 0.5))
		r.stage, r.wait = append(r.stage, quantileUS(st.stage, 0.5)), append(r.wait, quantileUS(st.wait, 0.5))
		r.allocs, r.allocBytes = append(r.allocs, st.allocs), append(r.allocBytes, st.allocBytes)
		r.all = append(r.all, st.lat...)
	}
	return r, nil
}

// probeLayers fills out with the ladder and the single-layer timings.
func probeLayers(w workload, o options, out map[string]float64) error {
	dir := filepath.Join(o.dir, "layers")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	open := func(name string, opts ...adept2.Option) (*adept2.System, error) {
		if err := os.MkdirAll(filepath.Join(dir, name), 0o755); err != nil {
			return nil, err
		}
		opts = append(opts, adept2.WithVFS(countfs.New()), adept2.WithCheckpointing(w.config()))
		return adept2.Open(filepath.Join(dir, name, "wal.ndjson"), opts...)
	}

	// Rung 1: the engine alone.
	r, err := rung(w, o.seed, newEngineDoor(), false)
	if err != nil {
		return fmt.Errorf("engine rung: %w", err)
	}
	engineUS := best(r.p50, false)
	out["engine.apply_us"] = engineUS

	// Rung 2: the façade without a journal — barrier, metrics, effect.
	mem := adept2.New()
	if r, err = rung(w, o.seed, localDoor{mem}, false); err != nil {
		return fmt.Errorf("facade rung: %w", err)
	}
	facadeUS := best(r.p50, false)
	out["facade.submit_us"], out["facade.overhead_us"] = facadeUS, facadeUS-engineUS
	runtime.GC()
	start := time.Now()
	if _, err := mem.Mine(ctx, adept2.MineOptions{}); err != nil {
		return err
	}
	out["mining.scan_us_per_inst"] = time.Since(start).Seconds() * 1e6 / float64(len(mem.Instances()))
	mem.Close()

	// Rung 3: journaled, each submit split into stage and durability wait;
	// its twin with the telemetry plane off prices the instrumentation.
	sys, err := open("durable")
	if err != nil {
		return err
	}
	if r, err = rung(w, o.seed, localDoor{sys}, true); err != nil {
		sys.Close()
		return fmt.Errorf("durable rung: %w", err)
	}
	durableUS := best(r.p50, false)
	out["facade.stage_us"], out["durable.wait_us"] = best(r.stage, false), best(r.wait, false)
	out["durable.overhead_us"] = durableUS - facadeUS
	out["facade.cmd_p999_us"] = quantileUS(r.all, 0.999)
	if err := probeSharded(w, sys, filepath.Join(dir, "durable", "wal.ndjson"), out); err != nil {
		return err
	}
	quiet, err := open("quiet", adept2.WithMetricsDisabled())
	if err != nil {
		return err
	}
	r, err = rung(w, o.seed, localDoor{quiet}, true)
	quiet.Close()
	if err != nil {
		return fmt.Errorf("metrics-off rung: %w", err)
	}
	out["obs.overhead_us"] = durableUS - best(r.p50, false)

	// Rung 4, where the workload has a network hop: the same journaled
	// system behind the networked plane.
	if w.remote {
		if sys, err = open("rpc"); err != nil {
			return err
		}
		defer sys.Close()
		srv, cli, err := serve(sys)
		if err != nil {
			return err
		}
		defer srv.Close(ctx)
		defer cli.Close()
		if r, err = rung(w, o.seed, remoteDoor{cli}, false); err != nil {
			return fmt.Errorf("rpc rung: %w", err)
		}
		out["rpc.submit_us"] = best(r.p50, false)
		out["rpc.overhead_us"] = out["rpc.submit_us"] - durableUS
		out["rpc.read_us"] = best(r.read, false)
		out["rpc.allocs_per_cmd"], out["rpc.bytes_alloc_per_cmd"] = median(r.allocs), median(r.allocBytes)
		out["rpc.cmd_p999_us"] = quantileUS(r.all, 0.999)
	}

	if err := probeCodecs(r.c.m.nextN(w.slice), dir, out); err != nil {
		return err
	}
	return probeEngine(w, o.seed, dir, out)
}

// probeCodecs times the wire codec and the journal's append and scan over
// a stretch of the workload's command stream.
func probeCodecs(cmds []adept2.Command, dir string, out map[string]float64) error {
	type wire struct {
		op   string
		args json.RawMessage
	}
	recs := make([]wire, len(cmds))
	n := float64(len(cmds))
	runtime.GC()
	start := time.Now()
	for i, cmd := range cmds {
		op, args, err := adept2.EncodeCommand(cmd)
		if err != nil {
			return err
		}
		recs[i] = wire{op, args}
	}
	out["wire.encode_us"] = time.Since(start).Seconds() * 1e6 / n
	start = time.Now()
	for _, r := range recs {
		if _, err := adept2.DecodeWireCommand(r.op, r.args); err != nil {
			return err
		}
	}
	out["wire.decode_us"] = time.Since(start).Seconds() * 1e6 / n

	fsys := countfs.New()
	path := filepath.Join(dir, "append.ndjson")
	j, err := persist.OpenJournalBufferedFS(fsys, path)
	if err != nil {
		return err
	}
	runtime.GC()
	start = time.Now()
	for _, r := range recs {
		if _, err := j.AppendRecord(r.op, 0, r.args); err != nil {
			return err
		}
	}
	if err := j.Flush(); err != nil {
		return err
	}
	out["persist.append_us"] = time.Since(start).Seconds() * 1e6 / n
	out["persist.bytes_per_record"] = float64(fsys.Counts().Bytes) / n
	if err := j.Close(); err != nil {
		return err
	}
	start = time.Now()
	if _, _, err := persist.LoadJournalSuffixFS(fsys, path, math.MaxInt); err != nil {
		return err
	}
	out["persist.scan_ms"] = time.Since(start).Seconds() * 1e3

	// What one real fsync of a 4 KiB append costs on this sandbox's disk —
	// the only number here that is the device's and not the program's.
	f, err := os.OpenFile(filepath.Join(dir, "fsync.probe"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	block := make([]byte, 4096)
	var syncs []time.Duration
	for i := 0; i < 20; i++ {
		if _, err := f.Write(block); err != nil {
			return err
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return err
		}
		syncs = append(syncs, time.Since(start))
	}
	out["vfs.sync_us"] = quantileUS(syncs, 0.5)
	return nil
}

// probeSharded checkpoints the journaled rung's system, closes it, and
// times sharded.Recover on what it left — at one P and at every CPU. A
// single-journal workload does not reach that layer and reports 0.
func probeSharded(w workload, sys *adept2.System, base string, out map[string]float64) error {
	if _, _, err := sys.Checkpoint(); err != nil {
		sys.Close()
		return err
	}
	if err := sys.Close(); err != nil {
		return err
	}
	out["sharded.recover_ms"], out["sharded.recover_ms_ncpu"] = 0, 0
	if w.shards <= 1 {
		return nil
	}
	l := sharded.Layout{Base: base, Shards: w.shards}
	man, err := sharded.LoadManifest(sharded.ManifestPath(base))
	if err != nil {
		return err
	}
	stores := make([]*durable.SnapshotStore, l.Shards)
	for k := range stores {
		if stores[k], err = durable.OpenStore(l.SnapDir(k)); err != nil {
			return err
		}
	}
	recover := func() (float64, error) {
		runtime.GC()
		start := time.Now()
		_, res, err := sharded.Recover(l, man, stores, func() *engine.Engine { return engine.New(nil) })
		if err == nil && res.Gen == nil {
			err = fmt.Errorf("sharded.Recover fell back to full replay: %v", res.Fallbacks)
		}
		return time.Since(start).Seconds() * 1e3, err
	}
	if out["sharded.recover_ms"], err = recover(); err != nil {
		return err
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	defer runtime.GOMAXPROCS(1)
	out["sharded.recover_ms_ncpu"], err = recover()
	return err
}

// probeEngine builds the starting population on a bare engine and times
// the worklist, snapshot, change, verify, compliance and evolution layers
// on it, one public function at a time.
func probeEngine(w workload, seed int64, dir string, out map[string]float64) error {
	ed := newEngineDoor()
	c := newClient(w, seed, nil)
	c.d = ed
	if err := c.load(c.m.build(w.pop), func() {}); err != nil {
		return err
	}
	eng := ed.eng

	var pages []time.Duration
	for i := 0; i < 400; i++ {
		start := time.Now()
		eng.WorkItemsPage(users[i%len(users)], "", pageSize)
		pages = append(pages, time.Since(start))
	}
	out["worklist.page_us"] = quantileUS(pages, 0.5)
	out["worklist.offered_items"] = float64(eng.Worklist().Len())

	// Snapshot capture, write and restore of the whole population.
	runtime.GC()
	start := time.Now()
	state, err := durable.Stage(eng, 0).Encode()
	if err != nil {
		return err
	}
	out["durable.capture_ms"] = time.Since(start).Seconds() * 1e3
	store, err := durable.OpenStoreFS(countfs.New(), filepath.Join(dir, "snapshots"))
	if err != nil {
		return err
	}
	start = time.Now()
	if _, err := store.Write(state); err != nil {
		return err
	}
	out["durable.snapshot_write_ms"] = time.Since(start).Seconds() * 1e3
	out["durable.snapshot_bytes"] = float64(store.BytesWritten())
	runtime.GC()
	start = time.Now()
	if err := durable.Restore(engine.New(nil), state); err != nil {
		return err
	}
	out["durable.restore_ms"] = time.Since(start).Seconds() * 1e3

	// One ad-hoc change per candidate: apply, measure, verify, undo.
	var apply, check []time.Duration
	var biasBytes, biased float64
	for _, in := range c.m.live {
		if !in.canBias() || len(apply) == 500 {
			continue
		}
		inst, _ := eng.Instance(in.id)
		start := time.Now()
		if err := change.ApplyAdHoc(inst, biasOps(in, biasConflict)...); err != nil {
			return fmt.Errorf("ApplyAdHoc on %s: %w", in.id, err)
		}
		apply = append(apply, time.Since(start))
		biasBytes, biased = biasBytes+float64(inst.Footprint().BiasBytes), biased+1
		view := inst.View()
		start = time.Now()
		ok := verify.Check(view).OK()
		check = append(check, time.Since(start))
		if !ok {
			return fmt.Errorf("verify.Check rejects the biased %s", in.id)
		}
		if err := rollback.UndoAll(inst); err != nil {
			return err
		}
	}
	out["change.adhoc_apply_us"] = quantileUS(apply, 0.5)
	out["verify.check_us"] = quantileUS(check, 0.5)
	if biased > 0 {
		out["storage.bytes_per_biased_inst"] = biasBytes / biased
	}

	// The two compliance checks alone, per instance of the first type,
	// against the version ΔT derives — what Evolve runs inside its loop.
	ops := sim.OnlineOrderTypeChange()
	target, err := ed.mgr.DeriveVersion(w.types[0], ops)
	if err != nil {
		return err
	}
	info, err := graph.Analyze(target)
	if err != nil {
		return err
	}
	insts := eng.InstancesOf(w.types[0], 1)
	var fast, replay time.Duration
	var reduced []*history.Event
	var rp compliance.Replayer
	runtime.GC()
	for _, inst := range insts {
		if inst.Done() || inst.Biased() {
			continue
		}
		err := inst.Mutate(func(mx *engine.Mutable) error {
			view, err := mx.View()
			if err != nil {
				return err
			}
			start := time.Now()
			// A state conflict is an answer, not a failure of the probe.
			_ = compliance.CheckFast(&change.Context{View: view, Marking: mx.Marking(), Stats: mx.Stats(), Store: mx.Store()}, ops)
			fast += time.Since(start)
			blocks, err := mx.Blocks()
			if err != nil {
				return err
			}
			start = time.Now()
			reduced = history.ReduceInto(blocks, mx.History().Events(), reduced)
			_, _ = rp.Replay(target, info, reduced)
			replay += time.Since(start)
			return nil
		})
		if err != nil {
			return err
		}
	}
	out["compliance.fast_us_per_inst"] = fast.Seconds() * 1e6 / float64(len(insts))
	out["compliance.replay_us_per_inst"] = replay.Seconds() * 1e6 / float64(len(insts))

	// The whole migration with every CPU: what the one-P gate leaves out.
	runtime.GOMAXPROCS(runtime.NumCPU())
	defer runtime.GOMAXPROCS(1)
	runtime.GC()
	start = time.Now()
	rep, err := ed.mgr.Evolve(w.types[0], ops, evolution.Options{})
	if err != nil {
		return err
	}
	out["evolution.migrate_us_per_inst_ncpu"] = time.Since(start).Seconds() * 1e6 / float64(rep.Total())
	return nil
}
