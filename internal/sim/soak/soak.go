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
//   - no acknowledged-write loss: a crash never loses a mutation whose
//     Submit returned success;
//   - replay fidelity: closing and reopening the system (snapshot +
//     journal-suffix recovery) reproduces the exact live state,
//     including armed deadlines, retry backoffs, failure counts,
//     escalations, and per-user worklists;
//   - liveness: once faults stop and an administrator resumes suspended
//     instances and releases pending compensations, every instance
//     runs to completion.
//
// # Scenario format
//
// A scenario is a Config value: Seed fixes the PRNG, and every other
// field is a dial on the adversarial mix (population size, step count,
// shard layout, failure probability, deadline storms, evolution/ad-hoc/
// reopen/crash cadences, the retry policy, and the sweep period). The
// zero value of a dial disables that behavior, so a scenario is written
// by starting from DefaultConfig (the full mix) or the zero Config (a
// quiet baseline) and setting dials. `adeptctl sim` exposes the same
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
	// RetryBackoff is the base (logical) retry backoff.
	RetryBackoff time.Duration
	// SweepEvery runs the deadline sweep every this many steps
	// (default 7).
	SweepEvery int
}

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
		RetryBackoff:  20 * time.Second,
		SweepEvery:    7,
	}
}

// Result counts what one soak run exercised. A result is only
// returned when every invariant held.
type Result struct {
	Steps         int // driver steps executed
	Created       int // instances created
	Finished      int // instances that reached the end node
	Activities    int // activities completed
	Failures      int // activity failures injected
	Timeouts      int // deadline expiries fired by sweeps
	Retries       int // retry backoffs lifted by sweeps
	Compensations int // policy compensations submitted by sweeps
	Skips         int // failures compensated by machine-generated skip changes
	Suspends      int // failures compensated by suspension
	Evolutions    int // schema evolutions applied
	AdHocs        int // ad-hoc changes applied
	FaultWindows  int // injected disk-fault windows
	Heals         int // successful heals (each forcing a checkpoint)
	WedgedSubmits int // submits rejected while the store was wedged
	Unacked       int // submits applied in memory whose acknowledgement failed (Error.Applied)
	Crashes       int // simulated crashes survived
	Reopens       int // clean close→reopen cycles verified

	// Digest is FNV-64a over the final state (summarize), the per-shard
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
		"steps=%d created=%d finished=%d activities=%d failures=%d timeouts=%d retries=%d compensations=%d skips=%d suspends=%d evolutions=%d adhocs=%d faultWindows=%d heals=%d wedgedSubmits=%d unacked=%d crashes=%d reopens=%d digest=%016x",
		r.Steps, r.Created, r.Finished, r.Activities, r.Failures, r.Timeouts,
		r.Retries, r.Compensations, r.Skips, r.Suspends, r.Evolutions, r.AdHocs,
		r.FaultWindows, r.Heals, r.WedgedSubmits, r.Unacked, r.Crashes, r.Reopens, r.Digest)
}

// users is the deterministic user pool (see Org).
var users = []string{"ann", "bob", "cyn", "dan"}

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
func (c *logicalClock) nanos() int64            { return c.t }

type runner struct {
	cfg   Config
	rng   *rand.Rand
	clock *logicalClock
	ffs   *vfs.FaultFS
	path  string
	sys   *adept2.System
	res   *Result

	// ackHist records, per instance, the history length at the last
	// acknowledged (successfully submitted) mutation; ackDone the
	// acknowledged completions. History only ever appends, so after a
	// crash the recovered lengths must cover these.
	ackHist map[string]int
	ackDone map[string]bool
	// unackedCreates counts the creates among Result.Unacked: such an
	// instance survives iff the next Heal, not a crash, reaches it first.
	unackedCreates int

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
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = 7
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 20 * time.Second
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 2
	}
	r := &runner{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		clock:   &logicalClock{t: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()},
		ffs:     vfs.NewFaultFS(vfs.NewMemFS(), nil),
		path:    "soak/journal.wal",
		res:     &Result{},
		ackHist: make(map[string]int),
		ackDone: make(map[string]bool),
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
		return nil, err
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
	if err := r.reopenClean(ctx); err != nil {
		return nil, fmt.Errorf("sim: soak: final reopen: %w", err)
	}
	if err := r.checkInvariants(); err != nil {
		return nil, err
	}
	if err := r.checkCounters(); err != nil {
		return nil, err
	}
	h := fnv.New64a()
	fmt.Fprint(h, summarize(r.sys), r.sys.DurableWatermarks(), r.ffs.OpCount())
	r.res.Digest = h.Sum64()
	if err := r.sys.Close(); err != nil {
		return nil, fmt.Errorf("sim: soak: final close: %w", err)
	}
	return r.res, nil
}

// checkCounters reconciles the Result with the population recovered
// after the drain: every acknowledged create is an instance, every
// instance an acknowledged or applied-but-unacknowledged create, all done.
func (r *runner) checkCounters() error {
	insts := r.sys.Instances()
	done := 0
	for _, inst := range insts {
		if inst.Done() {
			done++
		}
	}
	if n := len(insts); n < r.res.Created || n > r.res.Created+r.unackedCreates || done != n {
		return fmt.Errorf("sim: soak: %d instances (%d done) for %d acknowledged and %d applied-but-unacknowledged creates",
			n, done, r.res.Created, r.unackedCreates)
	}
	return nil
}

func (r *runner) policy() adept2.ExceptionPolicy {
	maxRetries, backoff := r.cfg.MaxRetries, r.cfg.RetryBackoff
	return adept2.PolicyFunc(func(x adept2.Exception) adept2.Reaction {
		if x.Kind == adept2.DeadlineExpired {
			return adept2.Reaction{Action: adept2.ActionNone}
		}
		if x.Failures <= maxRetries {
			d := backoff
			for i := 1; i < x.Failures; i++ {
				d *= 2
			}
			return adept2.Reaction{Action: adept2.ActionRetry, Backoff: d}
		}
		if skippable(x.Node) {
			return adept2.Reaction{Action: adept2.ActionSkip}
		}
		return adept2.Reaction{Action: adept2.ActionSuspend}
	})
}

func (r *runner) open() error {
	sys, err := adept2.Open(r.path,
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
	return nil
}

// tolerate classifies a command error under adversarial conditions:
// raced-moot refusals and wedged-store rejections are part of the
// scenario; anything else is a soak failure.
func (r *runner) tolerate(err error) error {
	if err == nil {
		return nil
	}
	var e *adept2.Error
	if errors.As(err, &e) && e.Applied {
		r.res.Unacked++
	}
	if errors.Is(err, adept2.ErrWedged) {
		r.res.WedgedSubmits++
		return nil
	}
	if errors.Is(err, adept2.ErrConflict) || errors.Is(err, adept2.ErrNotFound) ||
		errors.Is(err, adept2.ErrCompleted) || errors.Is(err, adept2.ErrSuspended) ||
		errors.Is(err, adept2.ErrNotCompliant) || errors.Is(err, adept2.ErrInvalid) {
		return nil
	}
	return err
}

// ackNow records the acknowledged state of an instance after a
// successful mutation.
func (r *runner) ackNow(instID string) {
	inst, ok := r.sys.Instance(instID)
	if !ok {
		return
	}
	r.ackHist[instID] = inst.HistoryLen()
	if inst.Done() {
		r.ackDone[instID] = true
	}
}

func (r *runner) ackAll() {
	for _, inst := range r.sys.Instances() {
		r.ackNow(inst.ID())
	}
}

func (r *runner) run(ctx context.Context) error {
	for step := 1; step <= r.cfg.Steps; step++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.res.Steps = step
		r.clock.Advance(time.Duration(1+r.rng.Intn(5)) * time.Second)

		if r.crashArmed && r.ffs.Crashed() {
			if err := r.reopenAfterCrash(ctx); err != nil {
				return fmt.Errorf("sim: soak step %d: crash recovery: %w", step, err)
			}
		}
		if err := r.manageFaults(ctx, step); err != nil {
			return fmt.Errorf("sim: soak step %d: %w", step, err)
		}
		if err := r.topUpInstances(ctx); err != nil {
			return fmt.Errorf("sim: soak step %d: create: %w", step, err)
		}
		if err := r.userAction(ctx); err != nil {
			return fmt.Errorf("sim: soak step %d: action: %w", step, err)
		}
		if r.cfg.DeadlineStorm && step%211 == 0 {
			r.clock.Advance(10 * time.Minute)
		}
		if step%r.cfg.SweepEvery == 0 {
			if err := r.sweep(ctx); err != nil {
				return fmt.Errorf("sim: soak step %d: sweep: %w", step, err)
			}
		}
		if r.cfg.EvolveEvery > 0 && step%r.cfg.EvolveEvery == 0 {
			if err := r.evolve(ctx); err != nil {
				return fmt.Errorf("sim: soak step %d: evolve: %w", step, err)
			}
		}
		if r.cfg.AdHocEvery > 0 && step%r.cfg.AdHocEvery == 0 {
			if err := r.adHoc(ctx); err != nil {
				return fmt.Errorf("sim: soak step %d: adhoc: %w", step, err)
			}
		}
		if r.cfg.ReopenEvery > 0 && step%r.cfg.ReopenEvery == 0 &&
			!r.crashArmed && r.faultCloseAt == 0 {
			if err := r.reopenClean(ctx); err != nil {
				return fmt.Errorf("sim: soak step %d: reopen: %w", step, err)
			}
		}
		if step%50 == 0 {
			if err := r.checkInvariants(); err != nil {
				return fmt.Errorf("sim: soak step %d: %w", step, err)
			}
			if err := r.checkMetrics(); err != nil {
				return fmt.Errorf("sim: soak step %d: %w", step, err)
			}
			if err := r.checkMining(ctx); err != nil {
				return fmt.Errorf("sim: soak step %d: %w", step, err)
			}
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

func (r *runner) topUpInstances(ctx context.Context) error {
	live := 0
	for _, inst := range r.sys.Instances() {
		if !inst.Done() {
			live++
		}
	}
	for live < r.cfg.Instances {
		res, err := r.sys.Submit(ctx, &adept2.CreateInstance{TypeName: "soak_order"})
		if err != nil {
			var e *adept2.Error
			if errors.As(err, &e) && e.Applied { // applied, then wedged before the acknowledgement
				r.unackedCreates++
			}
			return r.tolerate(err)
		}
		r.res.Created++
		r.ackNow(res.(*adept2.Instance).ID())
		live++
	}
	return nil
}

// userAction performs one random worklist action: start, complete, or
// fail an offered/running activity on behalf of a random user.
func (r *runner) userAction(ctx context.Context) error {
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
	running := inst.NodeState(it.Node) == state.Running
	switch {
	case running && r.rng.Float64() < r.cfg.FailProb:
		err := r.sys.Fail(ctx, it.Instance, it.Node, user,
			fmt.Sprintf("injected failure #%d", r.res.Failures+1))
		if terr := r.tolerate(err); terr != nil {
			return terr
		}
		if err == nil {
			r.res.Failures++
			r.ackNow(it.Instance)
			// Classify the observed compensation: the policy's skip
			// deletes the node from the instance view; its suspend
			// freezes the instance.
			if inst.Suspended() {
				r.res.Suspends++
			} else if _, stillThere := inst.View().Node(it.Node); !stillThere {
				r.res.Skips++
			}
		}
	case !running && r.rng.Float64() < 0.35:
		_, err := r.sys.Submit(ctx, &adept2.StartActivity{Instance: it.Instance, Node: it.Node, User: user})
		if terr := r.tolerate(err); terr != nil {
			return terr
		}
		if err == nil {
			r.ackNow(it.Instance)
		}
	default:
		return r.complete(ctx, it, inst, user)
	}
	return nil
}

// complete completes the item's activity and counts what was acknowledged.
func (r *runner) complete(ctx context.Context, it *adept2.WorkItem, inst *adept2.Instance, user string) error {
	_, err := r.sys.Submit(ctx, &adept2.CompleteActivity{
		Instance: it.Instance, Node: it.Node, User: user, Outputs: r.outputsFor(inst, it.Node)})
	if err != nil {
		return r.tolerate(err)
	}
	r.res.Activities++
	r.ackNow(it.Instance)
	if inst.Done() {
		r.res.Finished++
	}
	return nil
}

func (r *runner) outputsFor(inst *adept2.Instance, node string) map[string]any {
	v := inst.View()
	var out map[string]any
	for _, de := range v.DataEdgesOf(node) {
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
		// The sweep aborts on a wedged store — expected inside a fault
		// window.
		if errors.Is(err, adept2.ErrWedged) {
			return r.tolerate(err)
		}
		return err
	}
	if len(rep.Errors) > 0 {
		return fmt.Errorf("sweep reported %d errors, first: %w", len(rep.Errors), rep.Errors[0])
	}
	r.res.Timeouts += rep.Timeouts
	r.res.Retries += rep.Retries
	r.res.Compensations += rep.Compensated
	if rep.Timeouts+rep.Retries+rep.Compensated > 0 {
		r.ackAll()
	}
	return nil
}

// evolve serially inserts a fresh audit activity into the type's tail
// (between the last inserted audit — or ship — and archive), migrating
// compliant instances on the fly.
func (r *runner) evolve(ctx context.Context) error {
	latest := 1
	for _, s := range r.sys.Engine().AllSchemas() {
		if s.TypeName() == "soak_order" && s.Version() > latest {
			latest = s.Version()
		}
	}
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
	if terr := r.tolerate(err); terr != nil {
		return terr
	}
	if err == nil {
		r.res.Evolutions++
		r.ackAll()
	}
	return nil
}

// adHoc deletes a random still-activated skippable activity of a random
// live instance (the user-initiated flavor of the policy's skip
// compensation). Rejections are part of the experiment.
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
	if terr := r.tolerate(err); terr != nil {
		return terr
	}
	if err == nil {
		r.res.AdHocs++
		r.ackNow(inst.ID())
	}
	return nil
}

// reopenClean closes the system and reopens it from disk, asserting the
// recovered state is byte-identical to the live state it replaced.
func (r *runner) reopenClean(ctx context.Context) error {
	want := summarize(r.sys)
	if err := r.sys.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if err := r.open(); err != nil {
		return fmt.Errorf("open: %w", err)
	}
	got := summarize(r.sys)
	if want != got {
		return fmt.Errorf("recovered state diverges from live state:\n%s", summaryDiff(want, got))
	}
	if err := r.checkInvariants(); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	r.ackAll()
	r.res.Reopens++
	return nil
}

// reopenAfterCrash recovers from a tripped crash script and asserts no
// acknowledged write was lost: every instance whose mutation was
// acknowledged still exists with at least the acknowledged history
// length (history only appends), and acknowledged completions stay
// completed.
func (r *runner) reopenAfterCrash(ctx context.Context) error {
	_ = r.sys.Close() // the crashed store may refuse a clean close
	r.ffs.ClearCrash()
	r.ffs.SetScript(nil)
	r.crashArmed = false
	if err := r.open(); err != nil {
		return fmt.Errorf("open after crash: %w", err)
	}
	for id, n := range r.ackHist {
		inst, ok := r.sys.Instance(id)
		if !ok {
			return fmt.Errorf("acknowledged instance %s lost in crash", id)
		}
		if got := inst.HistoryLen(); got < n {
			return fmt.Errorf("instance %s lost acknowledged history: %d < %d", id, got, n)
		}
		if r.ackDone[id] && !inst.Done() {
			return fmt.Errorf("instance %s lost acknowledged completion", id)
		}
	}
	if err := r.checkInvariants(); err != nil {
		return fmt.Errorf("after crash recovery: %w", err)
	}
	// Unacknowledged suffixes may have survived; rebase the
	// acknowledged baseline on what actually recovered.
	r.ackHist = make(map[string]int)
	r.ackDone = make(map[string]bool)
	r.ackAll()
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
		for _, inst := range r.sys.Instances() {
			if inst.Done() {
				continue
			}
			if inst.Suspended() {
				_, err := r.sys.Submit(ctx, &adept2.Resume{Instance: inst.ID()})
				if err := r.tolerate(err); err != nil {
					return fmt.Errorf("sim: drain resume %s: %w", inst.ID(), err)
				}
			}
			for _, node := range inst.View().NodeIDs() {
				if inst.PendingCompensation(node) {
					_, err := r.sys.Submit(ctx, &adept2.RetryActivity{
						Instance: inst.ID(), Node: node, At: r.clock.nanos(),
					})
					if terr := r.tolerate(err); terr != nil {
						return fmt.Errorf("sim: drain retry %s/%s: %w", inst.ID(), node, terr)
					}
				}
			}
		}
		if err := r.sweep(ctx); err != nil {
			return fmt.Errorf("sim: drain: %w", err)
		}
		for _, user := range users {
			for _, it := range r.sys.WorkItems(user) {
				inst, ok := r.sys.Instance(it.Instance)
				if !ok {
					continue
				}
				if err := r.complete(ctx, it, inst, user); err != nil {
					return fmt.Errorf("sim: drain complete %s/%s: %w", it.Instance, it.Node, err)
				}
			}
		}
		stuck := 0
		for _, inst := range r.sys.Instances() {
			if !inst.Done() {
				stuck++
			}
		}
		if stuck == 0 {
			return nil
		}
	}
	var stuck []string
	for _, inst := range r.sys.Instances() {
		if !inst.Done() {
			stuck = append(stuck, fmt.Sprintf("%s(susp=%v)", inst.ID(), inst.Suspended()))
		}
	}
	return fmt.Errorf("sim: drain: %d instances never finished: %s", len(stuck), strings.Join(stuck, " "))
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
		if sh.Shard < len(r.baseSeqs) {
			growth += int64(sh.Seq - r.baseSeqs[sh.Shard])
		}
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
// state: no lost or phantom work items, and no wedged instances.
func (r *runner) checkInvariants() error {
	wl := r.sys.Engine().Worklist()
	for _, inst := range r.sys.Instances() {
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
			_, retryPending := inst.RetryDue(id)
			suppressed := retryPending || inst.PendingCompensation(id)
			switch st {
			case state.Activated:
				_, hasItem := wl.ItemFor(inst.ID(), id)
				if suppressed && hasItem {
					return fmt.Errorf("invariant: %s/%s is suppressed but has a work item", inst.ID(), id)
				}
				if !suppressed && !hasItem {
					return fmt.Errorf("invariant: lost work item for activated %s/%s", inst.ID(), id)
				}
			case state.Running:
				if _, hasItem := wl.ItemFor(inst.ID(), id); !hasItem {
					return fmt.Errorf("invariant: lost work item for running %s/%s", inst.ID(), id)
				}
			}
		}
		if !inst.Suspended() && !hasOpen {
			return fmt.Errorf("invariant: instance %s is wedged (live, nothing activated or running)", inst.ID())
		}
	}
	for _, inst := range r.sys.Instances() {
		for _, it := range wl.ItemsForInstance(inst.ID()) {
			if inst.Done() {
				return fmt.Errorf("invariant: phantom work item %s on completed %s", it.ID, inst.ID())
			}
			if st := inst.NodeState(it.Node); st != state.Activated && st != state.Running {
				return fmt.Errorf("invariant: work item %s for %s/%s in state %s", it.ID, inst.ID(), it.Node, st)
			}
		}
	}
	return nil
}

// summarize renders the complete observable state of a system into a
// deterministic string: per-instance flags, per-node marking and
// exception state (deadlines, retry backoffs, failure counts,
// escalations, pending compensations), history lengths, and every
// user's worklist. Two systems with equal summaries are
// indistinguishable to every public API the soak exercises.
func summarize(sys *adept2.System) string {
	var b strings.Builder
	for _, inst := range sys.Instances() {
		fmt.Fprintf(&b, "%s type=%s v=%d done=%v susp=%v hist=%d migr=%d\n",
			inst.ID(), inst.TypeName(), inst.Version(), inst.Done(), inst.Suspended(),
			inst.HistoryLen(), inst.Migrations())
		v := inst.View()
		for _, id := range v.NodeIDs() {
			dl, _ := inst.Deadline(id)
			ra, _ := inst.RetryDue(id)
			fmt.Fprintf(&b, "  %s st=%s dl=%d ra=%d f=%d esc=%v cp=%v\n",
				id, inst.NodeState(id), dl, ra, inst.FailureCount(id),
				inst.Escalated(id), inst.PendingCompensation(id))
		}
	}
	for _, user := range users {
		for _, it := range sys.WorkItems(user) {
			fmt.Fprintf(&b, "wl %s %s role=%s state=%s claimed=%s\n",
				user, it.ID, it.Role, it.State, it.ClaimedBy)
		}
	}
	return b.String()
}

// summaryDiff returns the first few differing lines of two summaries.
func summaryDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var out []string
	for i := 0; i < len(w) || i < len(g); i++ {
		var lw, lg string
		if i < len(w) {
			lw = w[i]
		}
		if i < len(g) {
			lg = g[i]
		}
		if lw != lg {
			out = append(out, fmt.Sprintf("-%s\n+%s", lw, lg))
			if len(out) >= 8 {
				out = append(out, "…")
				break
			}
		}
	}
	return strings.Join(out, "\n")
}
