// Package soak is the adversarial soak harness for process-level fault
// tolerance: it drives a population of instances through random
// failures, deadline storms, concurrent schema evolutions, ad-hoc
// changes, injected disk faults, crashes, and close→reopen cycles — all
// through the public System command API, never the engine directly, so
// every mutation takes the journaled path — and asserts global
// invariants along the way:
//
//   - no lost work items: every startable activity of a live instance
//     has exactly one work item, and every item maps to such a node;
//   - no wedged instances: every instance is terminal, suspended, or
//     has an activated/running node;
//   - no acknowledged-write loss: a sim.Ledger records what every
//     successful Submit acknowledged, and a crash recovery, like the
//     final reopen, must hold all of it (Ledger.Check);
//   - replay fidelity: closing and reopening the system (snapshot +
//     journal-suffix recovery) reproduces the exact live state as
//     sim.Summary renders it, including data, bias, history, armed
//     deadlines, retry backoffs, failure counts, escalations, and every
//     user's worklist;
//   - predicted refusals only: a command may be refused with ErrWedged
//     while a fault window is open or a crash is armed, and a start,
//     completion or failure with ErrSuspended when its item's instance
//     was suspended as the item was picked; any other refusal fails the
//     run with its seed and step;
//   - liveness: once faults stop and an administrator resumes suspended
//     instances and releases pending compensations, every instance
//     runs to completion.
//
// # Scenario format
//
// A scenario is a Config value: Seed fixes the PRNG, and every other
// field is a dial on the adversarial mix (population size, step count,
// shard layout, failure probability, deadline storms, evolution/ad-hoc/
// reopen/crash cadences, and the retry budget). The zero value of a dial
// disables that behavior, so a scenario is written by starting from
// DefaultConfig (the full mix) or the zero Config (a quiet baseline) and
// setting dials. `adeptctl sim` exposes the same
// dials as flags. A scenario is deterministic per (Seed, Config): the
// soak uses a logical clock injected via adept2.WithClock and a seeded
// PRNG, runs on an in-memory filesystem wrapped in a vfs.FaultFS, and
// reports a Result whose counters and final-state Digest are identical
// run to run, at any shard count, with and without the race detector.
package soak

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"time"

	"adept2"
	"adept2/internal/engine"
	"adept2/internal/mining"
	"adept2/internal/model"
	"adept2/internal/obs"
	"adept2/internal/sim"
	"adept2/internal/state"
	"adept2/internal/vfs"
)

// Config parameterizes one soak run. The zero value of any field
// disables the corresponding behavior; DefaultConfig returns the
// full adversarial mix.
type Config struct {
	// Seed seeds the PRNG and thereby the whole scenario.
	Seed int64
	// Instances is the target number of concurrently live instances
	// (new ones are created as others finish).
	Instances int
	// Steps is the number of driver steps (each step is roughly one
	// user action plus any due timer work).
	Steps int
	// Shards selects the sharded durability layout (0/1 = single
	// journal).
	Shards int
	// FailProb is the per-action probability that a running activity
	// reports a failure instead of completing.
	FailProb float64
	// DeadlineStorm periodically jumps the logical clock far ahead, so
	// a whole population of armed deadlines expires into one sweep.
	DeadlineStorm bool
	// EvolveEvery submits a schema evolution (serial insert of a new
	// audit activity) every this many steps (0 = never).
	EvolveEvery int
	// AdHocEvery submits a random skip-style ad-hoc change every this
	// many steps (0 = never).
	AdHocEvery int
	// DiskFaults enables transient injected write/sync fault windows
	// (wedging the committer until healed) and, with CrashEvery,
	// simulated crashes.
	DiskFaults bool
	// ReopenEvery closes and reopens the system every this many steps,
	// asserting exact state equality across recovery (0 = never; a
	// final reopen check always runs).
	ReopenEvery int
	// CrashEvery arms a random crash point every this many steps
	// (requires DiskFaults; 0 = never). After the crash trips, the
	// store is reopened and checked for acknowledged-write loss.
	CrashEvery int
	// MaxRetries is the exception policy's retry budget before it
	// compensates by skip or suspend.
	MaxRetries int
}

// The exception policy's base (logical) retry backoff, doubled with every
// further failure, and the deadline sweep's period in steps.
const (
	retryBackoff = 20 * time.Second
	sweepEvery   = 7
)

// DefaultConfig is the full adversarial mix at a size that runs in
// a few seconds.
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		Instances:     24,
		Steps:         4000,
		Shards:        4,
		FailProb:      0.3,
		DeadlineStorm: true,
		EvolveEvery:   600,
		AdHocEvery:    90,
		DiskFaults:    true,
		ReopenEvery:   900,
		CrashEvery:    1150,
		MaxRetries:    2,
	}
}

// Result counts what one soak run exercised. A result is only
// returned when every invariant held.
type Result struct {
	Steps int // driver steps executed
	// Created counts acknowledged creates and Finished acknowledged
	// completions that finished an instance. An applied-but-unacknowledged
	// create (counted in Unacked) still makes an instance that may finish,
	// so Finished may exceed Created.
	Created, Finished int
	Activities        int // activities completed
	Failures          int // activity failures injected
	Timeouts          int // deadline expiries fired by sweeps
	Retries           int // retry backoffs lifted by sweeps
	Skips             int // failures compensated by machine-generated skip changes
	Suspends          int // failures compensated by suspension
	Evolutions        int // schema evolutions applied
	AdHocs            int // ad-hoc changes applied
	FaultWindows      int // injected disk-fault windows
	Heals             int // successful heals (each forcing a checkpoint)
	WedgedSubmits     int // submits rejected while the store was wedged
	Unacked           int // submits applied in memory whose acknowledgement failed (Error.Applied)
	Crashes           int // simulated crashes survived
	Reopens           int // clean close→reopen cycles verified

	// Digest is FNV-64a over the final state (sim.Summary), the per-shard
	// durable watermarks and the filesystem's operation count: two runs
	// with equal digests ended in the same place by the same I/O.
	Digest uint64

	// MetricsSummary renders the telemetry plane of the busiest session
	// (captured after the drain, before the final reopen resets the
	// counters) with obs.WriteText; `adeptctl sim -stats` prints it. Not
	// part of String().
	MetricsSummary string `json:"-"`
}

func (r *Result) String() string {
	return fmt.Sprintf(
		"steps=%d created=%d finished=%d activities=%d failures=%d timeouts=%d retries=%d skips=%d suspends=%d evolutions=%d adhocs=%d faultWindows=%d heals=%d wedgedSubmits=%d unacked=%d crashes=%d reopens=%d digest=%016x",
		r.Steps, r.Created, r.Finished, r.Activities, r.Failures, r.Timeouts,
		r.Retries, r.Skips, r.Suspends, r.Evolutions, r.AdHocs,
		r.FaultWindows, r.Heals, r.WedgedSubmits, r.Unacked, r.Crashes, r.Reopens, r.Digest)
}

// skippable names the activities the exception policy may skip via
// a machine-generated DeleteActivity: side branches whose loss keeps the
// process completable (never the writer of a mandatory input).
func skippable(node string) bool {
	switch node {
	case "prep", "check", "fetch":
		return true
	}
	return strings.HasPrefix(node, "audit_")
}

// Schema builds the deadline-bearing order process the soak runs:
//
//	start → triage → AND[ prep → check | fetch ] → ship → archive → end
//
// prep, check, fetch, and ship carry relative deadlines; prep, fetch,
// and ship escalate to a different role on expiry. triage writes the
// order record that ship requires.
func Schema() *model.Schema {
	b := model.NewBuilder("soak_order")
	b.DataElement("order", model.TypeString)
	triage := b.Activity("triage", "Triage", model.WithRole("clerk"))
	prep := b.Activity("prep", "Prepare", model.WithRole("warehouse"),
		model.WithDeadline(2*time.Minute), model.WithEscalation("sales"))
	check := b.Activity("check", "Check", model.WithRole("sales"),
		model.WithDeadline(3*time.Minute))
	fetch := b.Activity("fetch", "Fetch", model.WithRole("warehouse"),
		model.WithDeadline(90*time.Second), model.WithEscalation("clerk"))
	ship := b.Activity("ship", "Ship", model.WithRole("courier"),
		model.WithDeadline(4*time.Minute), model.WithEscalation("worker"))
	archive := b.Activity("archive", "Archive", model.WithRole("clerk"))
	b.Write("triage", "order", "out")
	b.Read("ship", "order", "in", true)
	s, err := b.Build(b.Seq(triage, b.Parallel(b.Seq(prep, check), fetch), ship, archive))
	if err != nil {
		panic(fmt.Sprintf("sim: soak schema: %v", err))
	}
	return s
}

// logicalClock is the injected time source: it only moves when the
// driver advances it, so deadline math is deterministic per seed.
type logicalClock struct{ t int64 }

func (c *logicalClock) Now() time.Time          { return time.Unix(0, c.t) }
func (c *logicalClock) Advance(d time.Duration) { c.t += int64(d) }

type runner struct {
	cfg   Config
	rng   *rand.Rand
	clock *logicalClock
	ffs   *vfs.FaultFS
	sys   *adept2.System
	res   *Result

	ledger sim.Ledger // what Submit acknowledged; every recovery is checked against it

	faultCloseAt int  // step at which the open fault window closes (0 = none)
	crashArmed   bool // a CrashAt script is pending

	// baseSeqs records each shard's journal head at the current session's
	// open, so the live shard-append counters can be reconciled against
	// actual journal growth. sessionDirty marks a session that saw a
	// fault window or an armed crash: a mid-batch injected fault can
	// stage records on some shards before erroring (under-counting
	// appends), so equality is only asserted for clean sessions.
	baseSeqs     []int
	sessionDirty bool
}

// Run executes one soak scenario and returns its counters; any
// invariant violation (or unexpected command error) aborts with an
// error. Everything runs on an in-memory filesystem, so the soak leaves
// no residue.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Instances <= 0 {
		cfg.Instances = 8
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 1000
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 2
	}
	r := &runner{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		clock: &logicalClock{t: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()},
		ffs:   vfs.NewFaultFS(vfs.NewMemFS(), nil),
		res:   &Result{},
	}
	if err := r.ffs.MkdirAll("soak", 0o755); err != nil {
		return nil, err
	}
	if err := r.open(); err != nil {
		return nil, fmt.Errorf("sim: soak: first open: %w", err)
	}
	if _, err := r.sys.Submit(ctx, &adept2.Deploy{Schema: Schema()}); err != nil {
		return nil, fmt.Errorf("sim: soak: deploy: %w", err)
	}
	if err := r.run(ctx); err != nil {
		return nil, err
	}
	// End of scenario: stop injecting faults, heal, drain to full
	// completion, and do a final recovery-fidelity check.
	r.ffs.SetScript(nil)
	r.ffs.ClearCrash()
	r.crashArmed = false
	r.faultCloseAt = 0
	if err := r.sys.Heal(ctx); err != nil {
		return nil, fmt.Errorf("sim: soak: final heal: %w", err)
	}
	if err := r.drain(ctx); err != nil {
		return nil, fmt.Errorf("sim: soak seed %d: drain: %w", cfg.Seed, err)
	}
	// The post-drain session is the busiest the metrics plane gets:
	// reconcile it against ground truth and keep its summary before the
	// final reopen resets the counters.
	if err := r.checkMetrics(); err != nil {
		return nil, fmt.Errorf("sim: soak: after drain: %w", err)
	}
	if err := r.checkMining(ctx); err != nil {
		return nil, fmt.Errorf("sim: soak: after drain: %w", err)
	}
	var summary strings.Builder
	_ = obs.WriteText(&summary, r.sys.Metrics()) // a strings.Builder does not fail
	r.res.MetricsSummary = summary.String()
	if err := r.reopenClean(); err != nil {
		return nil, fmt.Errorf("sim: soak: final reopen: %w", err)
	}
	if err := r.ledger.Check(r.sys); err != nil {
		return nil, fmt.Errorf("sim: soak: final reopen: %w", err)
	}
	if n := len(r.sys.Instances()); n > r.res.Created+r.res.Unacked {
		return nil, fmt.Errorf("sim: soak: %d instances for %d acknowledged creates and %d unacknowledged commands",
			n, r.res.Created, r.res.Unacked)
	}
	h := fnv.New64a()
	fmt.Fprint(h, sim.Summary(r.sys), r.sys.DurableWatermarks(), r.ffs.OpCount())
	r.res.Digest = h.Sum64()
	if err := r.sys.Close(); err != nil {
		return nil, fmt.Errorf("sim: soak: final close: %w", err)
	}
	return r.res, nil
}

// policy is adept2.RetryThenSuspend, except that it skips a skippable
// activity where that suspends the instance.
func (r *runner) policy() adept2.ExceptionPolicy {
	retry := adept2.RetryThenSuspend(r.cfg.MaxRetries, retryBackoff)
	return adept2.PolicyFunc(func(x adept2.Exception) adept2.Reaction {
		re := retry.Decide(x)
		if re.Action == adept2.ActionSuspend && skippable(x.Node) {
			re.Action = adept2.ActionSkip
		}
		return re
	})
}

// open opens the store and checks the invariants of what it recovered.
func (r *runner) open() error {
	sys, err := adept2.Open("soak/journal.wal",
		adept2.WithOrg(sim.Org()),
		adept2.WithVFS(r.ffs),
		adept2.WithClock(r.clock.Now),
		adept2.WithExceptionPolicy(r.policy()),
		adept2.WithCheckpointing(adept2.CheckpointConfig{
			Every:  256,
			Shards: r.cfg.Shards,
		}),
	)
	if err != nil {
		return err
	}
	r.sys = sys
	snap := sys.Metrics()
	r.baseSeqs = make([]int, len(snap.Shards))
	for _, sh := range snap.Shards {
		r.baseSeqs[sh.Shard] = sh.Seq
	}
	r.sessionDirty = false
	if err := r.checkInvariants(); err != nil {
		return fmt.Errorf("recovered state: %w", err)
	}
	// What recovered is durable, an unacknowledged suffix included.
	r.ledger.AckAll(r.sys)
	return nil
}

// tolerate accepts the two refusals the soak predicts and no other:
// ErrWedged while a fault window is open or a crash is armed, and
// ErrSuspended when the item's instance was suspended as it was picked.
// An error with Applied set is counted in Unacked either way.
func (r *runner) tolerate(err error, suspended bool) error {
	if err == nil {
		return nil
	}
	var e *adept2.Error
	if errors.As(err, &e) && e.Applied {
		r.res.Unacked++
	}
	switch {
	case errors.Is(err, adept2.ErrWedged) && (r.faultCloseAt != 0 || r.crashArmed):
		r.res.WedgedSubmits++
		return nil
	case errors.Is(err, adept2.ErrSuspended) && suspended:
		return nil
	}
	return fmt.Errorf("unpredicted refusal: %w", err)
}

func (r *runner) run(ctx context.Context) error {
	for step := 1; step <= r.cfg.Steps; step++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.res.Steps = step
		if err := r.step(ctx, step); err != nil {
			return fmt.Errorf("sim: soak seed %d step %d: %w", r.cfg.Seed, step, err)
		}
	}
	return nil
}

// step runs one driver step: crash recovery and fault management, the top-up,
// one user action, and the timer work, change, reopen or check due now.
func (r *runner) step(ctx context.Context, step int) error {
	r.clock.Advance(time.Duration(1+r.rng.Intn(5)) * time.Second)
	if r.crashArmed && r.ffs.Crashed() {
		if err := r.reopenAfterCrash(); err != nil {
			return fmt.Errorf("crash recovery: %w", err)
		}
	}
	if err := r.manageFaults(ctx, step); err != nil {
		return err
	}
	if err := r.topUpInstances(ctx); err != nil {
		return fmt.Errorf("create: %w", err)
	}
	if err := r.userAction(ctx); err != nil {
		return fmt.Errorf("action: %w", err)
	}
	if r.cfg.DeadlineStorm && step%211 == 0 {
		r.clock.Advance(10 * time.Minute)
	}
	if step%sweepEvery == 0 {
		if err := r.sweep(ctx); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	if r.cfg.EvolveEvery > 0 && step%r.cfg.EvolveEvery == 0 {
		if err := r.evolve(ctx); err != nil {
			return fmt.Errorf("evolve: %w", err)
		}
	}
	if r.cfg.AdHocEvery > 0 && step%r.cfg.AdHocEvery == 0 {
		if err := r.adHoc(ctx); err != nil {
			return fmt.Errorf("adhoc: %w", err)
		}
	}
	if r.cfg.ReopenEvery > 0 && step%r.cfg.ReopenEvery == 0 &&
		!r.crashArmed && r.faultCloseAt == 0 {
		if err := r.reopenClean(); err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
	}
	if step%50 == 0 {
		if err := r.checkInvariants(); err != nil {
			return err
		}
		if err := r.checkMetrics(); err != nil {
			return err
		}
		if err := r.checkMining(ctx); err != nil {
			return err
		}
	}
	return nil
}

// manageFaults opens and closes injected disk-fault windows and arms
// crash points.
func (r *runner) manageFaults(ctx context.Context, step int) error {
	if !r.cfg.DiskFaults {
		return nil
	}
	switch {
	case r.faultCloseAt != 0 && step >= r.faultCloseAt:
		r.ffs.SetScript(nil)
		if err := r.sys.Heal(ctx); err != nil {
			return fmt.Errorf("heal after fault window: %w", err)
		}
		r.res.Heals++
		r.faultCloseAt = 0
	case r.faultCloseAt == 0 && !r.crashArmed && step%131 == 17:
		r.ffs.SetScript(vfs.FailFrom(r.ffs.OpCount()+1+int64(r.rng.Intn(8)),
			vfs.ErrInjected, vfs.OpWrite, vfs.OpSync))
		r.faultCloseAt = step + 8 + r.rng.Intn(10)
		r.res.FaultWindows++
		r.sessionDirty = true
	}
	if r.cfg.CrashEvery > 0 && !r.crashArmed && r.faultCloseAt == 0 &&
		step%r.cfg.CrashEvery == 0 {
		r.ffs.SetScript(vfs.CrashAt(r.ffs.OpCount() + 1 + int64(r.rng.Intn(30))))
		r.crashArmed = true
		r.sessionDirty = true
	}
	return nil
}

// unfinished returns the instances that have not reached their end node.
func (r *runner) unfinished() []*adept2.Instance {
	var out []*adept2.Instance
	for _, inst := range r.sys.Instances() {
		if !inst.Done() {
			out = append(out, inst)
		}
	}
	return out
}

func (r *runner) topUpInstances(ctx context.Context) error {
	for live := len(r.unfinished()); live < r.cfg.Instances; live++ {
		res, err := r.sys.Submit(ctx, &adept2.CreateInstance{TypeName: "soak_order"})
		if err != nil {
			return r.tolerate(err, false)
		}
		r.res.Created++
		r.ledger.Ack(r.sys, res.(*adept2.Instance).ID())
	}
	return nil
}

// userAction performs one random worklist action: start, complete, or
// fail an offered/running activity on behalf of a random user.
func (r *runner) userAction(ctx context.Context) error {
	users := r.sys.Org().Users()
	user := users[r.rng.Intn(len(users))]
	items := r.sys.WorkItems(user)
	if len(items) == 0 {
		return nil
	}
	it := items[r.rng.Intn(len(items))]
	inst, ok := r.sys.Instance(it.Instance)
	if !ok {
		return nil
	}
	running, suspended := inst.NodeState(it.Node) == state.Running, inst.Suspended()
	switch {
	case running && r.rng.Float64() < r.cfg.FailProb:
		_, err := r.sys.Submit(ctx, &adept2.FailActivity{Instance: it.Instance, Node: it.Node, User: user,
			Reason: fmt.Sprintf("injected failure #%d", r.res.Failures+1)})
		if terr := r.tolerate(err, suspended); terr != nil {
			return terr
		}
		if err == nil {
			r.res.Failures++
			r.ledger.Ack(r.sys, it.Instance)
			// Classify the reaction the command applied: a skip
			// deletes the node from the instance view, a suspend
			// freezes the instance.
			if inst.Suspended() {
				r.res.Suspends++
			} else if _, stillThere := inst.View().Node(it.Node); !stillThere {
				r.res.Skips++
			}
		}
	case !running && r.rng.Float64() < 0.35:
		_, err := r.sys.Submit(ctx, &adept2.StartActivity{Instance: it.Instance, Node: it.Node, User: user})
		if terr := r.tolerate(err, suspended); terr != nil {
			return terr
		}
		if err == nil {
			r.ledger.Ack(r.sys, it.Instance)
		}
	default:
		return r.complete(ctx, it, inst, user)
	}
	return nil
}

// complete completes the item's activity, just picked, and counts what
// was acknowledged.
func (r *runner) complete(ctx context.Context, it *adept2.WorkItem, inst *adept2.Instance, user string) error {
	suspended := inst.Suspended()
	_, err := r.sys.Submit(ctx, &adept2.CompleteActivity{
		Instance: it.Instance, Node: it.Node, User: user, Outputs: r.outputsFor(inst, it.Node)})
	if err != nil {
		return r.tolerate(err, suspended)
	}
	r.res.Activities++
	r.ledger.Ack(r.sys, it.Instance)
	if inst.Done() {
		r.res.Finished++
	}
	return nil
}

func (r *runner) outputsFor(inst *adept2.Instance, node string) map[string]any {
	var out map[string]any
	for _, de := range inst.View().DataEdgesOf(node) {
		if de.Access != model.Write {
			continue
		}
		if out == nil {
			out = make(map[string]any)
		}
		out[de.Parameter] = fmt.Sprintf("v%d", r.rng.Intn(1000))
	}
	return out
}

func (r *runner) sweep(ctx context.Context) error {
	rep, err := r.sys.SweepDeadlines(ctx, r.clock.Now())
	if err != nil {
		return r.tolerate(err, false) // a wedged store aborts the sweep
	}
	if len(rep.Errors) > 0 {
		return fmt.Errorf("sweep reported %d errors, first: %w", len(rep.Errors), rep.Errors[0])
	}
	r.res.Timeouts += rep.Timeouts
	r.res.Retries += rep.Retries
	if rep.Timeouts+rep.Retries > 0 {
		r.ledger.AckAll(r.sys)
	}
	return nil
}

// evolve serially inserts a fresh audit activity into the type's tail
// (between the last inserted audit — or ship — and archive), migrating
// compliant instances on the fly.
func (r *runner) evolve(ctx context.Context) error {
	latest := max(1, r.sys.LatestVersion("soak_order"))
	pred := "ship"
	if latest > 1 {
		pred = fmt.Sprintf("audit_%d", latest-1)
	}
	name := fmt.Sprintf("audit_%d", latest)
	ops := []adept2.Operation{&adept2.SerialInsert{
		Node: &model.Node{
			ID: name, Name: name, Type: model.NodeActivity,
			Role: "worker", Template: name,
			Deadline: int64(time.Minute), Escalation: "worker",
		},
		Pred: pred,
		Succ: "archive",
	}}
	_, err := r.sys.Submit(ctx, &adept2.Evolve{TypeName: "soak_order", Ops: ops})
	if terr := r.tolerate(err, false); terr != nil {
		return terr
	}
	if err == nil {
		r.res.Evolutions++
		r.ledger.AckAll(r.sys)
	}
	return nil
}

// adHoc deletes a random still-activated skippable activity of a random
// live instance (the user-initiated flavor of the policy's skip
// compensation).
func (r *runner) adHoc(ctx context.Context) error {
	insts := r.sys.Instances()
	if len(insts) == 0 {
		return nil
	}
	inst := insts[r.rng.Intn(len(insts))]
	if inst.Done() || inst.Suspended() {
		return nil
	}
	var candidates []string
	for _, id := range inst.View().NodeIDs() {
		if skippable(id) && inst.NodeState(id) == state.Activated {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	node := candidates[r.rng.Intn(len(candidates))]
	_, err := r.sys.Submit(ctx, &adept2.AdHoc{Instance: inst.ID(), Ops: []adept2.Operation{&adept2.DeleteActivity{ID: node}}})
	if terr := r.tolerate(err, false); terr != nil {
		return terr
	}
	if err == nil {
		r.res.AdHocs++
		r.ledger.Ack(r.sys, inst.ID())
	}
	return nil
}

// reopenClean closes the system and reopens it from disk, asserting the
// recovered state is byte-identical to the live state it replaced.
func (r *runner) reopenClean() error {
	want := sim.Summary(r.sys)
	if err := r.sys.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if err := r.open(); err != nil {
		return fmt.Errorf("open: %w", err)
	}
	if d := sim.Diff(want, sim.Summary(r.sys)); d != "" {
		return fmt.Errorf("recovered state diverges from live state:\n%s", d)
	}
	r.res.Reopens++
	return nil
}

// reopenAfterCrash recovers from a tripped crash script and asserts no
// acknowledged write was lost (Ledger.Check).
func (r *runner) reopenAfterCrash() error {
	_ = r.sys.Close() // the crashed store may refuse a clean close
	r.ffs.ClearCrash()
	r.ffs.SetScript(nil)
	r.crashArmed = false
	if err := r.open(); err != nil {
		return fmt.Errorf("open after crash: %w", err)
	}
	if err := r.ledger.Check(r.sys); err != nil {
		return err
	}
	r.res.Crashes++
	return nil
}

// drain is the administrator's cleanup after the adversarial phase:
// resume suspended instances, release pending compensations, sweep, and
// complete all offered work until every instance finishes.
func (r *runner) drain(ctx context.Context) error {
	rounds := 200 + 40*r.cfg.Instances
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.clock.Advance(45 * time.Second)
		for _, inst := range r.unfinished() {
			if inst.Suspended() {
				_, err := r.sys.Submit(ctx, &adept2.Resume{Instance: inst.ID()})
				if err := r.tolerate(err, false); err != nil {
					return fmt.Errorf("resume %s: %w", inst.ID(), err)
				}
			}
			for _, node := range inst.View().NodeIDs() {
				if inst.ExceptionState(node).Pending {
					_, err := r.sys.Submit(ctx, &adept2.RetryActivity{
						Instance: inst.ID(), Node: node, At: r.clock.t,
					})
					if terr := r.tolerate(err, false); terr != nil {
						return fmt.Errorf("retry %s/%s: %w", inst.ID(), node, terr)
					}
				}
			}
		}
		if err := r.sweep(ctx); err != nil {
			return err
		}
		for _, user := range r.sys.Org().Users() {
			for _, it := range r.sys.WorkItems(user) {
				inst, ok := r.sys.Instance(it.Instance)
				if !ok {
					continue
				}
				if err := r.complete(ctx, it, inst, user); err != nil {
					return fmt.Errorf("complete %s/%s: %w", it.Instance, it.Node, err)
				}
			}
		}
		if len(r.unfinished()) == 0 {
			return nil
		}
	}
	var stuck []string
	for _, inst := range r.unfinished() {
		stuck = append(stuck, fmt.Sprintf("%s(susp=%v)", inst.ID(), inst.Suspended()))
	}
	return fmt.Errorf("%d instances never finished: %s", len(stuck), strings.Join(stuck, " "))
}

// checkMetrics reconciles the telemetry plane against ground truth of
// the current session:
//
//   - per-op accounting: ok - batched submissions must equal the
//     latency histogram's population (the histogram only sees singular
//     submits);
//   - engine gauges must equal the engine's actual instance, worklist,
//     and open-exception counts;
//   - the live shard-append counters must equal the journal growth
//     since open — exactly in a clean session, and never exceed it when
//     injected faults could abort a batch mid-stage.
func (r *runner) checkMetrics() error {
	snap := r.sys.Metrics()
	for op, o := range snap.Ops {
		if o.OK-o.Batched != o.Latency.Count {
			return fmt.Errorf(
				"metrics invariant: op %s: ok=%d batched=%d but latency histogram holds %d",
				op, o.OK, o.Batched, o.Latency.Count)
		}
	}
	if got := len(r.sys.Instances()); snap.Engine.Instances != got {
		return fmt.Errorf("metrics invariant: instances gauge %d, engine has %d", snap.Engine.Instances, got)
	}
	if got := len(r.sys.OpenExceptions()); snap.Engine.OpenExceptions != got {
		return fmt.Errorf("metrics invariant: open-exceptions gauge %d, engine has %d", snap.Engine.OpenExceptions, got)
	}
	var appends, growth int64
	for _, sh := range snap.Shards {
		appends += sh.Appends
		growth += int64(sh.Seq - r.baseSeqs[sh.Shard])
	}
	if appends > growth {
		return fmt.Errorf("metrics invariant: %d appends counted but journals grew by %d", appends, growth)
	}
	if !r.sessionDirty && appends != growth {
		return fmt.Errorf("metrics invariant: clean session counted %d appends but journals grew by %d", appends, growth)
	}
	return nil
}

// checkMining reconciles the streaming mining scan against ground
// truth: System.Mine's variant table must carry exactly the counts
// obtained by recomputing each live instance's fingerprint one at a
// time from its own reduced history, and the population totals must
// match the engine. The batched scan and the per-instance recomputation
// share no aggregation state, so a fold bug on either side breaks the
// reconciliation for the scenario's seed.
func (r *runner) checkMining(ctx context.Context) error {
	rep, err := r.sys.Mine(ctx, adept2.MineOptions{MaxVariants: 1 << 16, BatchSize: 16})
	if err != nil {
		return fmt.Errorf("mining invariant: scan: %w", err)
	}
	insts := r.sys.Instances()
	if rep.Instances != int64(len(insts)) {
		return fmt.Errorf("mining invariant: scanned %d instances, engine has %d", rep.Instances, len(insts))
	}
	if rep.VariantOverflow != 0 {
		return fmt.Errorf("mining invariant: %d variants overflowed an uncapped table", rep.VariantOverflow)
	}
	want := make(map[string]int64)
	var done, biased int64
	var sc engine.MineScratch
	for _, inst := range insts {
		inst.MineHistory(&sc, func(v engine.MineView) {
			want[fmt.Sprintf("%016x", mining.Fingerprint(v.Reduced))]++
			if v.Done {
				done++
			}
			if v.Biased {
				biased++
			}
		})
	}
	if rep.Done != done || rep.Biased != biased {
		return fmt.Errorf("mining invariant: done/biased %d/%d, ground truth %d/%d",
			rep.Done, rep.Biased, done, biased)
	}
	got := make(map[string]int64, len(rep.Variants))
	for _, v := range rep.Variants {
		got[v.Fingerprint] = v.Count
	}
	if len(got) != len(want) {
		return fmt.Errorf("mining invariant: %d mined variants, ground truth %d", len(got), len(want))
	}
	for fp, n := range want {
		if got[fp] != n {
			return fmt.Errorf("mining invariant: variant %s mined %d times, ground truth %d", fp, got[fp], n)
		}
	}
	return nil
}

// checkInvariants asserts the global safety invariants over the live
// state: no lost or phantom work items, and no wedged instances. The
// worklist is the union of every user's, which holds every item only
// while every role an item can be offered to is held by a user.
func (r *runner) checkInvariants() error {
	org := r.sys.Org()
	roles := []string{"worker"} // evolve's audit activities
	for _, n := range Schema().Nodes() {
		roles = append(roles, n.Role, n.Escalation)
	}
	for _, role := range roles {
		if role != "" && len(org.UsersInRole(role)) == 0 {
			return fmt.Errorf("invariant: no user holds role %q, so no worklist lists its items", role)
		}
	}
	wl := make(map[string][]*adept2.WorkItem) // instance -> its items, each once
	hasItem := func(inst, node string) bool {
		return slices.ContainsFunc(wl[inst], func(it *adept2.WorkItem) bool { return it.Node == node })
	}
	for _, user := range org.Users() {
		for _, it := range r.sys.WorkItems(user) {
			if !hasItem(it.Instance, it.Node) {
				wl[it.Instance] = append(wl[it.Instance], it)
			}
		}
	}
	for _, inst := range r.sys.Instances() {
		for _, it := range wl[inst.ID()] {
			if inst.Done() {
				return fmt.Errorf("invariant: phantom work item %s on completed %s", it.ID, inst.ID())
			}
			if st := inst.NodeState(it.Node); st != state.Activated && st != state.Running {
				return fmt.Errorf("invariant: work item %s for %s/%s in state %s", it.ID, inst.ID(), it.Node, st)
			}
		}
		if inst.Done() {
			continue
		}
		v := inst.View()
		hasOpen := false
		for _, id := range v.NodeIDs() {
			n, _ := v.Node(id)
			st := inst.NodeState(id)
			if st == state.Activated || st == state.Running {
				hasOpen = true
			}
			if inst.Suspended() || n.Type != model.NodeActivity || n.Auto {
				continue
			}
			x := inst.ExceptionState(id)
			suppressed := x.RetryAt != 0 || x.Pending
			switch st {
			case state.Activated:
				has := hasItem(inst.ID(), id)
				if suppressed && has {
					return fmt.Errorf("invariant: %s/%s is suppressed but has a work item", inst.ID(), id)
				}
				if !suppressed && !has {
					return fmt.Errorf("invariant: lost work item for activated %s/%s", inst.ID(), id)
				}
			case state.Running:
				if !hasItem(inst.ID(), id) {
					return fmt.Errorf("invariant: lost work item for running %s/%s", inst.ID(), id)
				}
			}
		}
		if !inst.Suspended() && !hasOpen {
			return fmt.Errorf("invariant: instance %s is wedged (live, nothing activated or running)", inst.ID())
		}
	}
	return nil
}
