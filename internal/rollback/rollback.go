// Package rollback implements undo of ad-hoc instance changes: the most
// recent bias operation (or the whole bias) is removed again, provided the
// instance has not progressed into the changed region. This extends the
// ICDE 2005 demo towards the change-rollback facility of the ADEPT
// research line (Reichert/Dadam, ADEPTflex): deviations are temporary by
// nature and users must be able to return to the original schema without
// losing work.
//
// Correctness follows the same discipline as forward changes: the reduced
// view (bias minus the undone operations) must verify, and the instance's
// loop-reduced execution history must replay on it. An undo that would
// orphan history entries — e.g. removing an inserted activity that already
// started — is rejected with a state conflict.
package rollback

import (
	"adept2/internal/change"
	"adept2/internal/compliance"
	"adept2/internal/engine"
	"adept2/internal/fault"
	"adept2/internal/graph"
	"adept2/internal/history"
	"adept2/internal/verify"
)

// UndoLast removes the most recent ad-hoc change operation from the
// instance bias. The instance is untouched if the removal is not safe.
func UndoLast(inst *engine.Instance) error {
	return undo(inst, 1)
}

// UndoAll removes the entire instance bias, returning the instance to its
// plain schema version.
func UndoAll(inst *engine.Instance) error {
	return undo(inst, -1)
}

func undo(inst *engine.Instance, count int) error {
	return inst.Mutate(func(mx *engine.Mutable) error {
		if mx.Done() {
			return fault.Tagf(fault.Completed, "rollback: instance %s already completed", inst.ID())
		}
		ops, err := change.AsOperations(mx.BiasOps())
		if err != nil {
			return err
		}
		if len(ops) == 0 {
			return fault.Tagf(fault.Conflict, "rollback: instance %s has no ad-hoc changes", inst.ID())
		}
		keep := 0
		if count > 0 {
			keep = len(ops) - count
			if keep < 0 {
				keep = 0
			}
		}
		rest := ops[:keep]

		// 1. The reduced bias must produce a correct schema.
		trial := mx.Base().Clone()
		trial.SetSchemaID(trial.SchemaID() + "+undo-trial")
		for _, op := range rest {
			if err := op.ApplyTo(trial); err != nil {
				return fault.Tagf(fault.NotCompliant, "rollback: remaining bias does not re-apply: %w", err)
			}
		}
		if res := verify.Check(trial); !res.OK() {
			return fault.Tagf(fault.NotCompliant, "rollback: remaining bias fails verification: %w", res.Err())
		}

		// 2. The execution history must be reproducible without the
		// undone operations (state condition).
		curBlocks, err := mx.Blocks()
		if err != nil {
			return err
		}
		reduced := history.ReduceInto(curBlocks, mx.History().Events(), nil)
		info, err := graph.Analyze(trial)
		if err != nil {
			return err
		}
		if _, err := compliance.Replay(trial, info, reduced); err != nil {
			return fault.Tagf(fault.NotCompliant, "rollback: instance progressed into the change: %w", err)
		}

		// 3. Commit: rebuild the representation from the remaining bias
		// and adapt the marking.
		rebuilt := make([]engine.BiasOp, len(rest))
		for i, op := range rest {
			rebuilt[i] = op
		}
		if err := mx.RebuildBias(rebuilt); err != nil {
			return err
		}
		_, err = mx.AdaptState()
		return err
	})
}
