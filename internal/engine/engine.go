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
package engine

import (
	"sort"
	"strconv"
	"sync"

	"adept2/internal/fault"
	"adept2/internal/graph"
	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/org"
	"adept2/internal/storage"
	"adept2/internal/verify"
	"adept2/internal/worklist"
)

// BiasOp is the engine's view of an instance-specific change operation.
// The concrete operations live in internal/change; the engine only needs
// to re-apply them when it materializes on-the-fly views and to report
// them.
type BiasOp interface {
	// OpName identifies the operation kind (e.g. "serial-insert").
	OpName() string
	// ApplyTo applies the operation to a mutable schema view.
	ApplyTo(v model.MutableView) error
	// String renders the operation for reports.
	String() string
}

type schemaKey struct {
	typeName string
	version  int
}

// Engine is the process management runtime. All methods are safe for
// concurrent use.
type Engine struct {
	mu      sync.RWMutex
	org     *org.Model
	wl      *worklist.Manager
	schemas map[schemaKey]*model.Schema
	latest  map[string]int
	insts   map[string]*Instance
	order   []string
	// orderPos maps instance ID -> index in order, so paginated reads
	// resolve a cursor in O(1) instead of scanning the creation order.
	orderPos map[string]int
	nextID   int
	blocks   map[*model.Schema]*graph.Info
	// syms is the string table every instance's history log draws its
	// node and user symbols from; it lives and dies with the engine.
	syms *history.Symbols

	strategy storage.Strategy
}

// New creates an engine. A nil org model is replaced by an empty one.
func New(o *org.Model) *Engine {
	if o == nil {
		o = org.NewModel()
	}
	return &Engine{
		org:      o,
		wl:       worklist.NewManager(),
		schemas:  make(map[schemaKey]*model.Schema),
		latest:   make(map[string]int),
		insts:    make(map[string]*Instance),
		orderPos: make(map[string]int),
		blocks:   make(map[*model.Schema]*graph.Info),
		syms:     history.NewSymbols(),
		strategy: storage.Hybrid,
	}
}

// Org returns the organizational model.
func (e *Engine) Org() *org.Model { return e.org }

// Worklist returns the worklist manager.
func (e *Engine) Worklist() *worklist.Manager { return e.wl }

// SetStorageStrategy selects how biased instances represent their
// instance-specific schema (default storage.Hybrid). It applies to
// instances biased after the call; the Fig. 2 experiments switch it
// between runs.
func (e *Engine) SetStorageStrategy(s storage.Strategy) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.strategy = s
}

// StorageStrategy returns the active strategy.
func (e *Engine) StorageStrategy() storage.Strategy {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.strategy
}

// Deploy verifies and registers a schema version. A schema with
// error-severity findings is rejected; the version must be strictly newer
// than any deployed version of the same type.
func (e *Engine) Deploy(s *model.Schema) error {
	if err := verify.Err(s); err != nil {
		return fault.Tagf(fault.Invalid, "engine: deploy %s v%d: %w", s.TypeName(), s.Version(), err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	key := schemaKey{s.TypeName(), s.Version()}
	if _, dup := e.schemas[key]; dup {
		return fault.Tagf(fault.VersionSkew, "engine: deploy %s v%d: version already deployed", s.TypeName(), s.Version())
	}
	if s.Version() <= e.latest[s.TypeName()] {
		return fault.Tagf(fault.VersionSkew, "engine: deploy %s v%d: version not newer than latest v%d", s.TypeName(), s.Version(), e.latest[s.TypeName()])
	}
	e.schemas[key] = s
	e.latest[s.TypeName()] = s.Version()
	return nil
}

// Schema returns the deployed schema of a type and version.
func (e *Engine) Schema(typeName string, version int) (*model.Schema, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s, ok := e.schemas[schemaKey{typeName, version}]
	return s, ok
}

// LatestVersion returns the newest deployed version of a type (0 if the
// type is unknown).
func (e *Engine) LatestVersion(typeName string) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.latest[typeName]
}

// Types returns all deployed process type names, sorted.
func (e *Engine) Types() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ts := make([]string, 0, len(e.latest))
	for t := range e.latest {
		ts = append(ts, t)
	}
	sort.Strings(ts)
	return ts
}

// Versions returns the deployed versions of a type in ascending order.
func (e *Engine) Versions(typeName string) []int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var vs []int
	for k := range e.schemas {
		if k.typeName == typeName {
			vs = append(vs, k.version)
		}
	}
	sort.Ints(vs)
	return vs
}

// CreateInstance instantiates a process type. version 0 selects the
// latest deployed version. The new instance immediately executes all
// automatic nodes up to the first user-visible state.
func (e *Engine) CreateInstance(typeName string, version int) (*Instance, error) {
	e.mu.Lock()
	if version == 0 {
		version = e.latest[typeName]
	}
	s, ok := e.schemas[schemaKey{typeName, version}]
	if !ok {
		e.mu.Unlock()
		return nil, fault.Tagf(fault.NotFound, "engine: create instance: no schema %s v%d", typeName, version)
	}
	e.nextID++
	inst := newInstance(e, instanceID(e.nextID), s, e.strategy)
	e.insts[inst.id] = inst
	e.orderPos[inst.id] = len(e.order)
	e.order = append(e.order, inst.id)
	e.mu.Unlock()

	inst.mu.Lock()
	defer inst.mu.Unlock()
	if err := inst.bootstrapLocked(); err != nil {
		return nil, err
	}
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

// CreateInstanceID is CreateInstance with a caller-supplied instance ID.
// Sharded journal replay uses it: the create record carries the ID the
// original execution assigned, so recovery reproduces identical IDs even
// when shards replay in a different interleaving than the original
// command stream. An engine-style ID (inst-%06d) advances the counter
// past its numeric suffix so post-recovery creations cannot collide.
func (e *Engine) CreateInstanceID(id, typeName string, version int) (*Instance, error) {
	e.mu.Lock()
	if version == 0 {
		version = e.latest[typeName]
	}
	s, ok := e.schemas[schemaKey{typeName, version}]
	if !ok {
		e.mu.Unlock()
		return nil, fault.Tagf(fault.NotFound, "engine: create instance: no schema %s v%d", typeName, version)
	}
	if _, dup := e.insts[id]; dup {
		e.mu.Unlock()
		return nil, fault.Tagf(fault.Conflict, "engine: create instance: %q already exists", id)
	}
	if n, ok := instanceNumber(id); ok && n > e.nextID {
		e.nextID = n
	}
	inst := newInstance(e, id, s, e.strategy)
	e.insts[inst.id] = inst
	e.orderPos[inst.id] = len(e.order)
	e.order = append(e.order, inst.id)
	e.mu.Unlock()

	inst.mu.Lock()
	defer inst.mu.Unlock()
	if err := inst.bootstrapLocked(); err != nil {
		return nil, err
	}
	return inst, nil
}

// Instance looks up an instance by ID.
func (e *Engine) Instance(id string) (*Instance, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	inst, ok := e.insts[id]
	return inst, ok
}

// NumInstances returns the live instance count without cloning the
// listing — the metrics-poll read path.
func (e *Engine) NumInstances() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.order)
}

// Instances returns all instances in creation order.
func (e *Engine) Instances() []*Instance {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*Instance, 0, len(e.order))
	for _, id := range e.order {
		out = append(out, e.insts[id])
	}
	return out
}

// InstancesPage returns up to limit instances in creation order,
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
	e.mu.RLock()
	defer e.mu.RUnlock()
	start := 0
	if cursor != "" {
		pos, ok := e.orderPos[cursor]
		if !ok {
			return nil, ""
		}
		start = pos + 1
	}
	if start >= len(e.order) {
		return nil, ""
	}
	end := start + limit
	if end > len(e.order) {
		end = len(e.order)
	}
	out := make([]*Instance, 0, end-start)
	for _, id := range e.order[start:end] {
		out = append(out, e.insts[id])
	}
	next := ""
	if end < len(e.order) {
		next = e.order[end-1]
	}
	return out, next
}

// InstancesOf returns the instances of one process type, optionally
// filtered by schema version (version < 0 matches all).
func (e *Engine) InstancesOf(typeName string, version int) []*Instance {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []*Instance
	for _, id := range e.order {
		inst := e.insts[id]
		if inst.TypeName() != typeName {
			continue
		}
		if version >= 0 && inst.Version() != version {
			continue
		}
		out = append(out, inst)
	}
	return out
}

// StartActivity starts an activated manual activity on behalf of a user
// without arming a deadline (StartActivityAt with at = 0).
func (e *Engine) StartActivity(instID, node, user string) error {
	return e.StartActivityAt(instID, node, user, 0)
}

// StartActivityAt starts an activated manual activity on behalf of a
// user at the given time (unix nanos): a non-zero at arms the node's
// relative deadline at at + Node.Deadline. Callers journal at on the
// start command, so recovery re-arms the identical absolute deadline.
func (e *Engine) StartActivityAt(instID, node, user string, at int64) error {
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

// Claim reserves a work item for a user.
func (e *Engine) Claim(itemID, user string) error { return e.wl.Claim(itemID, user) }

// Release un-claims a work item.
func (e *Engine) Release(itemID, user string) error { return e.wl.Release(itemID, user) }

// WorkItems returns the work items visible to a user.
func (e *Engine) WorkItems(user string) []*worklist.Item { return e.wl.ItemsFor(user) }

// WorkItemsPage returns up to limit of a user's work items ordered by
// item ID, starting after the cursor item ID ("" = beginning), plus the
// next cursor ("" when exhausted).
func (e *Engine) WorkItemsPage(user, cursor string, limit int) ([]*worklist.Item, string) {
	return e.wl.ItemsForPage(user, cursor, limit)
}
