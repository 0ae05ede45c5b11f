// Package evolution implements ADEPT2 schema evolution and instance
// migration: a process type change ΔT derives a new schema version, and
// the migration manager propagates it to the running instances of the old
// version — on the fly, classifying every instance as migrated or as
// having a state-related, structural, or semantical conflict (the Fig. 3
// migration report of the paper).
//
// A migrated instance's state adapts one way: incremental state adaptation
// (state.Adapt, through engine.Mutable.AdaptState), after which the
// automatic cascade fires and records whatever the adaptation enabled.
// History replay (compliance.Replayer) is the criterion that adaptation
// answers to: Options.Mode may select it as the compliance check, and the
// tests hold every adapted marking to the marking replay gives.
package evolution

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"adept2/internal/change"
	"adept2/internal/compliance"
	"adept2/internal/engine"
	"adept2/internal/fault"
	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/state"
	"adept2/internal/storage"
	"adept2/internal/verify"
)

// Outcome classifies the migration result of one instance.
type Outcome uint8

const (
	// Migrated: the instance is compliant and now runs on the new version.
	Migrated Outcome = iota
	// AlreadyFinished: the instance completed before the migration; it
	// stays on its version.
	AlreadyFinished
	// StateConflict: the instance progressed beyond the change region
	// (instance I3 of Fig. 1); it remains on the old version.
	StateConflict
	// StructuralConflict: the instance's ad-hoc bias conflicts with the
	// type change — jointly they would violate the buildtime guarantees,
	// e.g. create a deadlock-causing cycle (instance I2 of Fig. 1).
	StructuralConflict
	// SemanticConflict: the type change and the instance bias insert the
	// same activity template (duplicate work).
	SemanticConflict
	// Failed: an internal error occurred; the instance is untouched.
	Failed
)

var outcomeNames = [...]string{
	Migrated:           "migrated",
	AlreadyFinished:    "already-finished",
	StateConflict:      "state-conflict",
	StructuralConflict: "structural-conflict",
	SemanticConflict:   "semantic-conflict",
	Failed:             "failed",
}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// Outcomes enumerates all outcome values in display order.
func Outcomes() []Outcome {
	return []Outcome{Migrated, AlreadyFinished, StateConflict, StructuralConflict, SemanticConflict, Failed}
}

// CheckMode selects the compliance checking algorithm.
type CheckMode uint8

const (
	// FastCheck uses the per-operation state conditions (paper Fig. 1).
	FastCheck CheckMode = iota
	// ReplayCheck replays the reduced execution history on the target
	// schema (the ground-truth criterion; slower).
	ReplayCheck
)

func (m CheckMode) String() string {
	if m == ReplayCheck {
		return "replay"
	}
	return "fast"
}

// Options tunes a migration run.
type Options struct {
	// Mode selects the compliance check (default FastCheck).
	Mode CheckMode
}

// InstanceResult is the per-instance row of a migration report.
type InstanceResult struct {
	Instance string
	Outcome  Outcome
	// Detail explains conflicts in user terms (which condition failed).
	Detail string
	// Biased records whether the instance carried ad-hoc changes.
	Biased bool
	// Duration is the wall time spent deciding and migrating.
	Duration time.Duration
}

// Report summarizes one migration run (the content of the paper's Fig. 3
// report window).
type Report struct {
	TypeName    string
	FromVersion int
	ToVersion   int
	Options     Options
	Results     []InstanceResult
	Elapsed     time.Duration
}

// Count returns how many instances ended with the outcome.
func (r *Report) Count(o Outcome) int {
	n := 0
	for _, res := range r.Results {
		if res.Outcome == o {
			n++
		}
	}
	return n
}

// Total returns the number of considered instances.
func (r *Report) Total() int { return len(r.Results) }

// Manager performs schema evolutions against one engine.
type Manager struct {
	eng *engine.Engine
}

// NewManager returns a migration manager for the engine.
func NewManager(e *engine.Engine) *Manager { return &Manager{eng: e} }

// DeriveVersion applies a type change to the latest version of the process
// type and returns the new (verified, not yet deployed) schema version.
func (m *Manager) DeriveVersion(typeName string, ops []change.Operation) (*model.Schema, error) {
	from := m.eng.LatestVersion(typeName)
	if from == 0 {
		return nil, fault.Tagf(fault.NotFound, "evolution: unknown process type %q", typeName)
	}
	base, _ := m.eng.Schema(typeName, from)
	next := base.Clone()
	next.SetVersion(from + 1)
	next.SetSchemaID(fmt.Sprintf("%s@v%d", typeName, from+1))
	for _, op := range ops {
		if err := op.ApplyTo(next); err != nil {
			return nil, fault.Tagf(fault.Invalid, "evolution: derive %s v%d: %w", typeName, from+1, err)
		}
	}
	if res := verify.Check(next); !res.OK() {
		return nil, fault.Tagf(fault.Invalid, "evolution: derive %s v%d: %w", typeName, from+1, res.Err())
	}
	return next, nil
}

// Evolve performs a full schema evolution: it derives and deploys the new
// version and migrates all compliant instances of the old version on the
// fly. Non-compliant instances keep running on the old version (their
// conflict is reported), exactly as in the paper's demo.
func (m *Manager) Evolve(typeName string, ops []change.Operation, opts Options) (*Report, error) {
	from := m.eng.LatestVersion(typeName)
	next, err := m.DeriveVersion(typeName, ops)
	if err != nil {
		return nil, err
	}
	if err := m.eng.Deploy(next); err != nil {
		return nil, err
	}
	to, _ := m.eng.Deployed(typeName, next.Version())
	return m.MigrateAll(typeName, from, to, ops, opts), nil
}

// MigrateAll migrates every instance of (typeName, fromVersion) towards
// the deployed target version and returns the report. GOMAXPROCS workers,
// at most one per instance, share (read-only) the target's topology and
// the block analysis it was deployed with instead of deriving them per
// instance.
func (m *Manager) MigrateAll(typeName string, fromVersion int, to engine.Deployed, ops []change.Operation, opts Options) *Report {
	start := time.Now()
	insts := m.eng.InstancesOf(typeName, fromVersion)
	results := make([]InstanceResult, len(insts))

	var wg sync.WaitGroup
	work := make(chan int)
	for range min(runtime.GOMAXPROCS(0), len(insts)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker reuses one replay scratch (interned event log,
			// in-history bitset, candidate list) and one history-reduction
			// buffer across all instances it migrates.
			sc := &migrateScratch{}
			for i := range work {
				results[i] = m.migrateInstance(insts[i], to, ops, opts, sc)
			}
		}()
	}
	for i := range insts {
		work <- i
	}
	close(work)
	wg.Wait()

	return &Report{
		TypeName:    typeName,
		FromVersion: fromVersion,
		ToVersion:   to.Schema.Version(),
		Options:     opts,
		Results:     results,
		Elapsed:     time.Since(start),
	}
}

// migrateScratch bundles the per-worker reusable buffers of a migration
// run: the replay checker's scratch, the history-reduction buffer, and the
// marking/stats remap pools (state adaptation recycles the previous
// instance's discarded dense arrays instead of allocating four fresh ones
// per migrated instance).
type migrateScratch struct {
	rp      compliance.Replayer
	reduced []*history.Event
	remap   state.RemapScratch
	rebind  history.RebindScratch
}

// migrateInstance decides and (if compliant) performs the migration of one
// instance to the target version.
func (m *Manager) migrateInstance(inst *engine.Instance, to engine.Deployed, ops []change.Operation, opts Options, sc *migrateScratch) InstanceResult {
	res := InstanceResult{Instance: inst.ID()}
	begin := time.Now()
	err := inst.Mutate(func(mx *engine.Mutable) error {
		res.Biased = len(mx.BiasOps()) > 0
		res.Outcome, res.Detail = m.migrateLocked(mx, to, ops, opts, sc)
		return nil
	})
	if err != nil {
		res.Outcome, res.Detail = Failed, err.Error()
	}
	res.Duration = time.Since(begin)
	return res
}

// migrateLocked runs under the instance lock.
func (m *Manager) migrateLocked(mx *engine.Mutable, to engine.Deployed, ops []change.Operation, opts Options, sc *migrateScratch) (Outcome, string) {
	if mx.Done() {
		return AlreadyFinished, ""
	}
	bias := mx.BiasOps()
	biasOps, err := change.AsOperations(bias)
	if err != nil {
		return Failed, err.Error()
	}
	// 1. Semantical conflicts: type change and bias insert the same
	// activity template.
	if len(biasOps) > 0 {
		tChange := change.InsertedTemplates(ops)
		for t := range change.InsertedTemplates(biasOps) {
			if tChange[t] {
				return SemanticConflict, fmt.Sprintf("type change and instance bias both insert template %q", t)
			}
		}
	}

	// 2. Structural conflicts: the bias must re-apply cleanly to the new
	// version and the result must satisfy every buildtime guarantee
	// (instance I2 of Fig. 1 fails here with a deadlock-causing cycle).
	// The trial is the overlay the instance will have, verified once; an
	// unbiased instance runs on the target itself, with its analysis.
	var trial *storage.Overlay
	targetView, targetBlocks := model.SchemaView(to.Schema), to.Blocks
	if len(bias) > 0 {
		if trial, err = engine.BuildOverlay(to.Schema, bias); err != nil {
			return StructuralConflict, err.Error()
		}
		vres := verify.Check(trial)
		if !vres.OK() {
			return StructuralConflict, vres.Err().Error()
		}
		targetView, targetBlocks = trial, vres.Blocks
	}

	// 3. State-related conflicts: compliance check.
	switch opts.Mode {
	case ReplayCheck:
		curBlocks, _ := mx.Blocks()
		sc.reduced = history.ReduceInto(curBlocks, mx.History().Events(), sc.reduced)
		if _, err := sc.rp.Replay(targetView, targetBlocks, sc.reduced); err != nil {
			return StateConflict, err.Error()
		}
	default:
		view, _ := mx.View()
		ctx := &change.Context{View: view, Marking: mx.Marking(), Stats: mx.Stats(), Store: mx.Store()}
		if err := compliance.CheckFast(ctx, ops); err != nil {
			return StateConflict, err.Error()
		}
	}

	// 4. Migrate: the target version and the trial become the instance's,
	// and the state adapts.
	mx.MigrateTo(to, trial, targetBlocks, bias)
	// Pre-bind the execution index and the marking onto the target
	// topology through the worker's pooled scratch: AdaptState's rebind and
	// state.Adapt's ensure are then pointer checks instead of allocating
	// remaps.
	topo := targetView.Topology()
	mx.Stats().RebindPooled(topo, &sc.rebind)
	mx.Marking().RebindTo(topo, &sc.remap)
	if _, err := mx.AdaptState(); err != nil {
		return Failed, err.Error()
	}
	return Migrated, ""
}
