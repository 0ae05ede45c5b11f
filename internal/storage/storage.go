// Package storage implements the hybrid schema/instance representation of
// Fig. 2 of the ADEPT2 paper. Unchanged ("unbiased") instances reference
// their original schema redundancy-free and only carry instance data
// (markings, histories). For changed ("biased") instances the package
// offers three representations:
//
//   - Hybrid (the paper's choice): a minimal substitution block — an
//     Overlay recording only the delta against the original schema — is
//     kept per biased instance and overlays the original schema on access.
//   - FullCopy: a complete materialized schema per biased instance
//     (maximal memory, fastest access).
//   - OnTheFly: only the change operations are kept and the
//     instance-specific schema is materialized on every access (minimal
//     memory, slowest access).
//
// The Fig. 2 experiments (bench_test.go) compare the three.
//
// An Overlay answers a read by one rule: a key the delta does not touch —
// a node whose edges it left alone, an activity whose data edges it left
// alone — reads the base schema's own list (capped, so that an append
// copies instead of writing into the base); a key the delta touches reads
// the list the overlay keeps for it, replaced whole by each mutation that
// touches the key. Nothing is built per read. The whole-view lists
// (NodeIDs, Edges, DataElements, DataEdges) are built per call — unless the
// delta has no entry of the kind, when they are the base's too — for their
// cold callers: the verifier, the block analysis, the topology build and
// Materialize.
package storage

import "fmt"

// Strategy selects the representation of biased instances.
type Strategy uint8

const (
	// Hybrid keeps a minimal substitution block per biased instance and
	// overlays the original schema on access (the paper's approach).
	Hybrid Strategy = iota
	// FullCopy materializes a complete schema per biased instance.
	FullCopy
	// OnTheFly stores only the bias operations and materializes the
	// instance-specific schema on every access.
	OnTheFly
)

var strategyNames = [...]string{
	Hybrid:   "hybrid",
	FullCopy: "full-copy",
	OnTheFly: "on-the-fly",
}

func (s Strategy) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return fmt.Sprintf("strategy(%d)", uint8(s))
}

// Strategies enumerates all representations, for experiment sweeps.
func Strategies() []Strategy { return []Strategy{Hybrid, FullCopy, OnTheFly} }
