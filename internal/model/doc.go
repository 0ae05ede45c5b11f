// Package model defines the ADEPT2 process meta model: block-structured
// process schemas (WSM nets) consisting of activity and gateway nodes,
// control edges, sync edges (cross-branch ordering constraints inside
// parallel blocks), loop edges, and explicit data flow (typed data elements
// connected to activities through read/write data edges).
//
// A Schema is the buildtime artifact. All consumers (the verifier, the
// execution engine, the change framework, the compliance checker) operate
// on the read-only SchemaView interface so that biased instances can
// substitute an overlay view (see internal/storage) without materializing
// a full per-instance schema copy — the hybrid representation of Fig. 2 of
// the ADEPT2 paper.
//
// # Topology index invariants
//
// Every SchemaView exposes a precomputed Topology: per-node adjacency
// lists split by edge type plus derived node lists (auto-executable
// nodes, manual activities). The adjacency is one arena: a single array of
// edge indices holds every list of every node back to back, an offset
// table says where each list starts, and the NodeTopology handle At
// returns slices the arena per call — no slice header and no allocation
// per list. The index obeys the following invariants, which the marking
// evaluator (internal/state), the engine cascade, and the compliance
// replayer rely on:
//
//   - Completeness: Topology().Idx(id) succeeds exactly for the IDs in
//     NodeIDs() and returns the ID's position there; At(i).Node() is the
//     same *Node that Node(id) returns.
//   - Partition: the typed lists of a node partition InEdges/OutEdges by
//     EdgeType — every incident control and sync edge appears in exactly
//     one in list and one out list, every loop edge in its source's out
//     list (incoming loop edges are not indexed: nothing reads them) —
//     each list in Edges() order, and EdgeAt returns the *Edge pointers of
//     Edges() (no copies).
//   - Derived lists: AutoExecutableIdx() holds exactly the nodes with
//     CanAutoExecute() true, ManualActivitiesIdx() exactly the non-Auto
//     NodeActivity nodes, both in NodeIDs() order.
//   - Keyed edge lookup: EdgeIdxOf scans the source node's out list of the
//     key's type; there is no edge-key map. It serves the marking remap,
//     the snapshot import and the keyed Marking accessors, none of them on
//     the per-command path.
//   - Coherence: the index is invalidated by every structural mutation
//     (node/edge add, remove, replace). *Schema clears its cache slot on
//     mutation and rebuilds on demand (safe under concurrent readers: the
//     slot is atomic and the build idempotent); the storage overlay drops
//     its index the same way. A *Topology held across a mutation of its
//     view is stale — re-fetch it instead. Data elements and data edges do
//     not affect the index (the per-activity data-edge lists are
//     maintained separately by DataEdgesOf).
//   - Immutability: accessor results alias the arena read-only (they are
//     capped, so an append copies); one Topology is shared by every
//     concurrent reader of a deployed schema.
//
// # Interning invariants
//
// The Topology doubles as the view's node/edge interner: every node owns a
// dense NodeIdx equal to its position in NodeIDs() (contiguous in
// [0, NumNodes())), every edge a dense EdgeIdx equal to its position in
// Edges(). Consumers that index per-instance state by these indices
// (internal/state.Marking, internal/history.Stats, the compliance
// replayer's scratch) rely on:
//
//   - Index validity window: a NodeIdx/EdgeIdx is meaningful only for the
//     exact *Topology value that assigned it. The window opens when the
//     index is obtained from a Topology and closes when the view's
//     Topology() returns a different pointer — i.e. at the next structural
//     mutation (of a Schema or of an overlay's delta).
//     Indices must never be mixed across Topology values, not even for
//     views with identical node sets: only the string IDs are stable
//     identity.
//   - Remap-on-refresh: state keyed by interned indices must be remapped
//     through the string IDs when the topology pointer changes. The
//     marking does this transparently — every view-taking entry point of
//     internal/state compares the bound topology pointer against
//     v.Topology() and translates node states, edge signals, and the
//     pending worklist by identity; states of nodes/edges absent
//     from the new topology are dropped, new ones start in their zero
//     state. history.Stats follows the same rule via Rebind (with an
//     overflow map as a correctness net for deferred rebinds). The
//     overlay (internal/storage) triggers this by dropping its Topology
//     on every node or edge mutation, so a bias that alters the node set
//     re-interns and every bound consumer remaps on next contact.
//   - Order preservation: interned indices order exactly like view order
//     (NodeIdx ascending == NodeIDs order), so sorting activation sets by
//     index reproduces the deterministic schema order the string API
//     promised.
package model
