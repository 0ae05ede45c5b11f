// Package engine implements the ADEPT2 runtime: it deploys verified
// schemas, creates and drives process instances, maintains markings,
// execution histories, data stores and worklists, and exposes the
// controlled mutation entry points the change framework and the migration
// manager build on.
//
// The engine never interprets change operations itself — it only knows the
// BiasOp interface — so the package order stays strictly layered:
// model/graph/verify/state/history/data/org/worklist → engine →
// change/compliance → evolution.
//
// The engine holds three containers and no index beside them: types, the
// deployed versions of each process type in ascending order, each with the
// block analysis Deploy verified it by; insts, every instance by ID; and
// order, the same instances in creation order, each holding its own index
// there. Engine.mu guards those three, the ID counter and every instance's
// pos. Instance.mu guards everything else an instance points to — its
// deployed version included, whose schema and analysis are immutable once
// Deploy returned and are therefore read through the instance's own copy
// of the entry, not under Engine.mu. Neither lock is acquired while the
// other is held.
//
// A biased instance has one representation, the hybrid one of the paper's
// Fig. 2: an overlay holding only the delta over its deployed version.
// A change, an undo and a migration each build the overlay the instance
// would have (BuildOverlay), verify it once, and on success install it
// with the analysis the verifier computed (Mutable.SetBias,
// Mutable.MigrateTo); RestoreInstance rebuilds the same overlay from the
// recorded operations.
package engine

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"adept2/internal/fault"
	"adept2/internal/graph"
	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/org"
	"adept2/internal/verify"
	"adept2/internal/worklist"
)

// BiasOp is the engine's view of an instance-specific change operation.
// The concrete operations live in internal/change; the engine only needs
// to apply them to an overlay (BuildOverlay) and to report them.
type BiasOp interface {
	// OpName identifies the operation kind (e.g. "serial-insert").
	OpName() string
	// ApplyTo applies the operation to a mutable schema view.
	ApplyTo(v model.MutableView) error
	// String renders the operation for reports.
	String() string
}

// Deployed is one deployed schema version together with the block
// analysis verify.Check computed when it was deployed. Both are immutable.
type Deployed struct {
	Schema *model.Schema
	Blocks *graph.Info
}

// Engine is the process management runtime. All methods are safe for
// concurrent use.
type Engine struct {
	mu    sync.RWMutex
	org   *org.Model
	wl    *worklist.Manager
	types map[string][]Deployed // ascending by version; the latest is the last
	insts map[string]*Instance
	order []*Instance // key order (CompareInstanceIDs); order[inst.pos] == inst
	// unsorted is set when an instance was appended to order behind a
	// larger key: a recovery restores and replays shards side by side, and
	// a foreign ID may sort anywhere. The next read of order sorts it
	// (readOrder), and recovery sorts it as it ends (SortInstanceOrder).
	unsorted bool
	nextID   int
	// syms is the string table every instance's history log draws its
	// node and user symbols from; it lives and dies with the engine.
	syms *history.Symbols
}

// New creates an engine. A nil org model is replaced by an empty one.
func New(o *org.Model) *Engine {
	if o == nil {
		o = org.NewModel()
	}
	return &Engine{
		org:   o,
		wl:    worklist.NewManager(),
		types: make(map[string][]Deployed),
		insts: make(map[string]*Instance),
		syms:  history.NewSymbols(),
	}
}

// Org returns the organizational model.
func (e *Engine) Org() *org.Model { return e.org }

// Worklist returns the worklist manager.
func (e *Engine) Worklist() *worklist.Manager { return e.wl }

// Deploy verifies and registers a schema version. A schema with
// error-severity findings is rejected; the version must be strictly newer
// than any deployed version of the same type.
func (e *Engine) Deploy(s *model.Schema) error {
	res := verify.Check(s)
	if err := res.Err(); err != nil {
		return fault.Tagf(fault.Invalid, "engine: deploy %s v%d: %w", s.TypeName(), s.Version(), err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	vs := e.types[s.TypeName()]
	if _, dup := versionOf(vs, s.Version()); dup {
		return fault.Tagf(fault.VersionSkew, "engine: deploy %s v%d: version already deployed", s.TypeName(), s.Version())
	}
	if s.Version() <= latestOf(vs) {
		return fault.Tagf(fault.VersionSkew, "engine: deploy %s v%d: version not newer than latest v%d", s.TypeName(), s.Version(), latestOf(vs))
	}
	e.types[s.TypeName()] = append(vs, Deployed{s, res.Blocks})
	return nil
}

// versionOf finds one version in a type's ascending list.
func versionOf(vs []Deployed, version int) (Deployed, bool) {
	i, ok := slices.BinarySearchFunc(vs, version, func(d Deployed, v int) int { return cmp.Compare(d.Schema.Version(), v) })
	if !ok {
		return Deployed{}, false
	}
	return vs[i], true
}

// latestOf is the newest version in a type's list, 0 for an empty one.
func latestOf(vs []Deployed) int {
	if len(vs) == 0 {
		return 0
	}
	return vs[len(vs)-1].Schema.Version()
}

// Deployed returns a deployed version of a type with its block analysis.
func (e *Engine) Deployed(typeName string, version int) (Deployed, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return versionOf(e.types[typeName], version)
}

// Schema returns the deployed schema of a type and version.
func (e *Engine) Schema(typeName string, version int) (*model.Schema, bool) {
	d, ok := e.Deployed(typeName, version)
	return d.Schema, ok
}

// LatestVersion returns the newest deployed version of a type (0 if the
// type is unknown).
func (e *Engine) LatestVersion(typeName string) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return latestOf(e.types[typeName])
}

// Types returns all deployed process type names, sorted.
func (e *Engine) Types() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.typesLocked()
}

func (e *Engine) typesLocked() []string {
	ts := make([]string, 0, len(e.types))
	for t := range e.types {
		ts = append(ts, t)
	}
	slices.Sort(ts)
	return ts
}

// CreateInstance instantiates a process type. version 0 selects the
// latest deployed version. The new instance immediately executes all
// automatic nodes up to the first user-visible state.
func (e *Engine) CreateInstance(typeName string, version int) (*Instance, error) {
	return e.CreateInstanceID("", typeName, version)
}

// CreateInstanceID is CreateInstance with a caller-supplied instance ID
// ("" has the engine assign the next one). Sharded journal replay uses it:
// the create record carries the ID the original execution assigned, so
// recovery reproduces identical IDs even when shards replay in a different
// interleaving than the original command stream. An engine-style ID
// (inst-%06d) advances the counter past its numeric suffix so
// post-recovery creations cannot collide.
func (e *Engine) CreateInstanceID(id, typeName string, version int) (*Instance, error) {
	if err := checkUTF8("create instance", "ID", id); err != nil {
		return nil, err
	}
	e.mu.Lock()
	if version == 0 {
		version = latestOf(e.types[typeName])
	}
	inst, err := e.registerLocked(id, typeName, version, true)
	e.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("engine: create instance: %w", err)
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if err := inst.bootstrapLocked(); err != nil {
		return nil, err
	}
	return inst, nil
}

// checkUTF8 refuses as invalid a string the engine would keep that is not
// UTF-8: the journal and the snapshot write JSON, which carries such a
// string only as U+FFFD, so the state would change across a reopen.
func checkUTF8(op, what, s string) error {
	if utf8.ValidString(s) {
		return nil
	}
	return fault.Tagf(fault.Invalid, "engine: %s: %s %q is not UTF-8", op, what, s)
}

// registerLocked is the one place an instance enters the registry: it
// resolves the deployed version, assigns the next ID to an empty one,
// refuses a taken one, keeps the counter ahead of every engine-style ID,
// and appends the instance to the creation order at the position it
// records. A create that fails consumes no ID. A live instance enters with
// its running part, a sealed one without.
func (e *Engine) registerLocked(id, typeName string, version int, live bool) (*Instance, error) {
	d, ok := versionOf(e.types[typeName], version)
	if !ok {
		return nil, fault.Tagf(fault.NotFound, "no schema %s v%d", typeName, version)
	}
	if id == "" {
		e.nextID++
		id = instanceID(e.nextID)
	} else if _, dup := e.insts[id]; dup {
		return nil, fault.Tagf(fault.Conflict, "%q already exists", id)
	} else if n, ok := instanceNumber(id); ok && n > e.nextID {
		e.nextID = n
	}
	inst := newInstance(e, id, d, live)
	if n := len(e.order); n > 0 && !e.unsorted && CompareInstanceIDs(id, e.order[n-1].id) < 0 {
		e.unsorted = true
	}
	inst.pos = int32(len(e.order))
	e.insts[id] = inst
	e.order = append(e.order, inst)
	return inst, nil
}

// instanceID formats the n-th engine-assigned instance ID, "inst-%06d".
func instanceID(n int) string {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(n), 10)
	var buf [32]byte
	b := append(buf[:0], "inst-000000"[:max(5, 11-len(d))]...)
	return string(append(b, d...))
}

// Instance looks up an instance by ID.
func (e *Engine) Instance(id string) (*Instance, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	inst, ok := e.insts[id]
	return inst, ok
}

// HeldName returns the engine's own copy of a name b spells, and false
// when the engine holds none: an instance ID (the key of the registry,
// read under the engine's read lock), a deployed type name, or a node ID
// or user name some history has recorded (the symbol table's published
// map, read without a lock). A decoder stores the returned string instead
// of copying b, so a name the engine holds costs nothing to decode.
func (e *Engine) HeldName(kind NameKind, b []byte) (string, bool) {
	switch kind {
	case NameInstance:
		e.mu.RLock()
		defer e.mu.RUnlock()
		if inst, ok := e.insts[string(b)]; ok {
			return inst.id, true
		}
	case NameType:
		e.mu.RLock()
		defer e.mu.RUnlock()
		if vs := e.types[string(b)]; len(vs) > 0 {
			return vs[0].Schema.TypeName(), true
		}
	case NameSymbol:
		return e.syms.Lookup(b)
	}
	return "", false
}

// NameKind is what a name HeldName resolves names. The zero kind names
// nothing the engine holds (a failure's reason, a create's new ID).
type NameKind uint8

const (
	NameInstance NameKind = iota + 1 // an instance ID
	NameType                         // a deployed process type
	NameSymbol                       // a node ID or user name
)

// NumInstances returns the live instance count without cloning the
// listing — the metrics-poll read path.
func (e *Engine) NumInstances() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.order)
}

// readOrder runs read under the engine's lock with order sorted: under the
// read lock, or once under the write lock when an append left it unsorted.
func (e *Engine) readOrder(read func()) {
	e.mu.RLock()
	if !e.unsorted {
		defer e.mu.RUnlock()
		read()
		return
	}
	e.mu.RUnlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sortOrderLocked()
	read()
}

// Instances returns all instances in key order (CompareInstanceIDs): the
// order they were created in, while the engine assigns their IDs, and the
// same order on a live engine and on its recovery.
func (e *Engine) Instances() []*Instance {
	var out []*Instance
	e.readOrder(func() { out = slices.Clone(e.order) })
	return out
}

// InstancesPage returns up to limit instances in key order (Instances),
// starting after the cursor (the last instance ID of the previous page;
// "" starts from the beginning). It returns the page and the cursor for
// the next call — "" once the listing is exhausted. Unlike Instances it
// copies only one page, so a million-instance engine serves worklist
// browsers without million-entry allocations per request. An unknown
// cursor (e.g. from before a recovery that renumbered nothing — IDs are
// stable — or simply garbage) yields an empty page.
func (e *Engine) InstancesPage(cursor string, limit int) ([]*Instance, string) {
	if limit <= 0 {
		limit = 100
	}
	var page []*Instance
	next := ""
	e.readOrder(func() {
		start := 0
		if cursor != "" {
			after, ok := e.insts[cursor]
			if !ok {
				return
			}
			start = int(after.pos) + 1
		}
		if start >= len(e.order) {
			return
		}
		end := min(start+limit, len(e.order))
		if end < len(e.order) {
			next = e.order[end-1].id
		}
		page = slices.Clone(e.order[start:end])
	})
	return page, next
}

// InstancesOf returns the instances of one process type, optionally
// filtered by schema version (version < 0 matches all). The version is an
// instance's own, read under its lock once the engine's is released.
func (e *Engine) InstancesOf(typeName string, version int) []*Instance {
	var out []*Instance
	e.readOrder(func() {
		for _, inst := range e.order {
			if inst.typeName == typeName {
				out = append(out, inst)
			}
		}
	})
	if version < 0 {
		return out
	}
	return slices.DeleteFunc(out, func(inst *Instance) bool { return inst.Version() != version })
}

// StartActivityAt starts an activated manual activity on behalf of a
// user at the given time (unix nanos): a non-zero at arms the node's
// relative deadline at at + Node.Deadline. Callers journal at on the
// start command, so recovery re-arms the identical absolute deadline.
func (e *Engine) StartActivityAt(instID, node, user string, at int64) error {
	if err := checkUTF8("start", "user", user); err != nil {
		return err
	}
	inst, ok := e.Instance(instID)
	if !ok {
		return fault.Tagf(fault.NotFound, "engine: start: unknown instance %q", instID)
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.startLocked(node, user, at)
}

// CompleteActivity completes a running node (starting it first if it was
// only activated), writes its outputs, and advances the instance.
func (e *Engine) CompleteActivity(instID, node, user string, outputs map[string]any, opts ...CompleteOption) error {
	if err := checkUTF8("complete", "user", user); err != nil {
		return err
	}
	inst, ok := e.Instance(instID)
	if !ok {
		return fault.Tagf(fault.NotFound, "engine: complete: unknown instance %q", instID)
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	return inst.completeEntryLocked(node, user, outputs, opts...)
}

// Suspend blocks user operations on an instance (ad-hoc changes and
// migration remain possible; administrators use this to freeze an
// instance while deciding on an intervention).
func (e *Engine) Suspend(instID string) error {
	inst, ok := e.Instance(instID)
	if !ok {
		return fault.Tagf(fault.NotFound, "engine: suspend: unknown instance %q", instID)
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.done {
		return fault.Tagf(fault.Completed, "engine: suspend %s: instance is completed", instID)
	}
	inst.suspended = true
	return nil
}

// Resume re-enables user operations on a suspended instance.
func (e *Engine) Resume(instID string) error {
	inst, ok := e.Instance(instID)
	if !ok {
		return fault.Tagf(fault.NotFound, "engine: resume: unknown instance %q", instID)
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if !inst.suspended {
		return fault.Tagf(fault.Conflict, "engine: resume %s: instance is not suspended", instID)
	}
	inst.suspended = false
	return nil
}

// WorkItems returns the work items visible to a user.
func (e *Engine) WorkItems(user string) []*worklist.Item { return e.wl.ItemsFor(user) }

// WorkItemsPage returns up to limit of a user's work items ordered by
// item ID, starting after the cursor item ID ("" = beginning), plus the
// next cursor ("" when exhausted).
func (e *Engine) WorkItemsPage(user, cursor string, limit int) ([]*worklist.Item, string) {
	return e.wl.ItemsForPage(user, cursor, limit)
}
