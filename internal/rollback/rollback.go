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
	"slices"

	"adept2/internal/compliance"
	"adept2/internal/engine"
	"adept2/internal/fault"
	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/storage"
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
		bias := mx.BiasOps()
		if len(bias) == 0 {
			return fault.Tagf(fault.Conflict, "rollback: instance %s has no ad-hoc changes", inst.ID())
		}
		keep := 0
		if count > 0 {
			keep = max(len(bias)-count, 0)
		}
		rest := slices.Clone(bias[:keep])

		// 1. The reduced bias must produce a correct schema: the overlay
		// of the remaining ops, verified once. No remaining op leaves the
		// deployed version, verified when it was deployed.
		base := mx.Base()
		var trial *storage.Overlay
		view, blocks := model.SchemaView(base.Schema), base.Blocks
		if len(rest) > 0 {
			var err error
			if trial, err = engine.BuildOverlay(base.Schema, rest); err != nil {
				return fault.Tagf(fault.NotCompliant, "rollback: remaining bias does not re-apply: %w", err)
			}
			res := verify.Check(trial)
			if !res.OK() {
				return fault.Tagf(fault.NotCompliant, "rollback: remaining bias fails verification: %w", res.Err())
			}
			view, blocks = trial, res.Blocks
		}

		// 2. The execution history must be reproducible without the
		// undone operations (state condition).
		curBlocks, _ := mx.Blocks()
		reduced := history.ReduceInto(curBlocks, mx.History().Events(), nil)
		if _, err := compliance.Replay(view, blocks, reduced); err != nil {
			return fault.Tagf(fault.NotCompliant, "rollback: instance progressed into the change: %w", err)
		}

		// 3. Commit: the trial becomes the representation and the marking
		// adapts.
		mx.SetBias(trial, blocks, rest)
		_, err := mx.AdaptState()
		return err
	})
}
