package change

import (
	"fmt"
	"slices"

	"adept2/internal/engine"
	"adept2/internal/fault"
	"adept2/internal/verify"
)

// StructuralError describes a structural conflict: the changed schema
// would violate the buildtime guarantees (e.g. a deadlock-causing cycle).
type StructuralError struct {
	Reason string
}

func (e *StructuralError) Error() string {
	return "change: structural conflict: " + e.Reason
}

// ApplyAdHoc performs an ad-hoc change of a single running instance — the
// paper's first change dimension. The change is atomic: it builds the
// overlay the instance would have, verifies it once, checks the
// per-operation state conditions against the instance, and only if
// everything holds does that overlay, with the analysis the verifier
// computed, become the instance's representation and the marking adapt.
// On any failure the instance is untouched.
func ApplyAdHoc(inst *engine.Instance, ops ...Operation) error {
	return inst.Mutate(func(mx *engine.Mutable) error { return ApplyAdHocIn(mx, ops...) })
}

// ApplyAdHocIn is ApplyAdHoc inside a Mutate the caller holds, as a
// failure's skip reaction deletes its node.
func ApplyAdHocIn(mx *engine.Mutable, ops ...Operation) error {
	if len(ops) == 0 {
		return fault.Tagf(fault.Invalid, "change: ad-hoc change without operations")
	}
	if mx.Done() {
		return fault.Tagf(fault.Completed, "change: instance %s already completed", mx.ID())
	}
	// 1. The trial: the instance's recorded bias and then the change,
	// each op applied once to a fresh overlay over the base.
	bias := mx.BiasOps()
	trial, err := engine.BuildOverlay(mx.Base().Schema, bias)
	if err != nil {
		return fmt.Errorf("change: recorded bias of %s does not re-apply: %w", mx.ID(), err)
	}
	bias = slices.Grow(bias, len(ops))
	for _, op := range ops {
		if err := op.ApplyTo(trial); err != nil {
			return fault.Tag(fault.Invalid, err)
		}
		bias = append(bias, op)
	}
	// 2. The changed schema must satisfy every buildtime guarantee.
	res := verify.Check(trial)
	if !res.OK() {
		kind := fault.NotCompliant
		if res.Has(verify.CodeNotUTF8) {
			kind = fault.Invalid // a string no journal line carries: a malformed change, not an unsafe one
		}
		return fault.Tag(kind, &StructuralError{Reason: res.Err().Error()})
	}
	// 3. State conditions against the live instance.
	view, _ := mx.View()
	ctx := &Context{View: view, Marking: mx.Marking(), Stats: mx.Stats(), Store: mx.Store()}
	for _, op := range ops {
		if err := op.FastCompliance(ctx); err != nil {
			return fault.Tag(fault.NotCompliant, err)
		}
	}
	// 4. The trial and its analysis become the instance's.
	mx.SetBias(trial, res.Blocks, bias)
	// 5. Automatic state adaptation.
	_, err = mx.AdaptState()
	return err
}

// AsOperations converts recorded engine bias ops back to change
// operations. It fails if a foreign BiasOp implementation sneaked in.
func AsOperations(biasOps []engine.BiasOp) ([]Operation, error) {
	ops := make([]Operation, len(biasOps))
	for i, b := range biasOps {
		op, ok := b.(Operation)
		if !ok {
			return nil, fmt.Errorf("change: bias op %T is not a change operation", b)
		}
		ops[i] = op
	}
	return ops, nil
}
