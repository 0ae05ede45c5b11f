// Package storage implements the hybrid schema/instance representation of
// Fig. 2 of the ADEPT2 paper, the one representation biased instances have.
// Unchanged ("unbiased") instances reference their original schema
// redundancy-free and only carry instance data (markings, histories). A
// changed ("biased") instance keeps a minimal substitution block — an
// Overlay recording only the delta against the original schema — which
// overlays the original schema on access. A change, an undo and a
// migration build the overlay the instance would have, verify it once, and
// on success that overlay becomes the instance's (internal/engine).
//
// The paper weighs two other representations against it: a complete
// materialized schema per biased instance (maximal memory, fastest access),
// and only the change operations, re-applied on every access (minimal
// memory, slowest access). Neither is a representation of the engine; the
// Fig. 2 benchmarks (bench_test.go) and the equivalence tests build both
// from the same delta — Materialize is the full copy, the recorded
// operations re-applied to the original schema the on-the-fly view.
//
// An Overlay answers a read by one rule: an activity whose data edges the
// delta left alone reads the base schema's own list (capped, so that an
// append copies instead of writing into the base); one the delta touches
// reads the list the overlay keeps for it, replaced whole by each mutation
// that touches it. Which edges touch a node is read from the view's
// topology index, a patch of the base's that the overlay makes from the
// delta on first use after a mutation; the overlay keeps no edge list of
// its own. Nothing is built per read. The whole-view lists (NodeIDs,
// Edges, DataElements, DataEdges) are built per call — unless the delta
// has no entry of the kind, when they are the base's too — for their cold
// callers: the verifier, the block analysis and Materialize.
package storage
