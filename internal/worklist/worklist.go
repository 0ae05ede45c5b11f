// Package worklist implements the ADEPT2 worklist manager. When an
// activity becomes activated, a work item is offered to every user whose
// role matches the activity's staff assignment; a candidate starts and
// completes it. There is no claim: an item is reserved by starting it, and
// the engine refuses a second start of a running activity. An item a
// snapshot stores in state 1, a claim an older build kept, is read as
// Offered. Items of skipped, completed, or migrated-away activities are
// withdrawn automatically by the engine.
//
// # Identity
//
// A work item's ID is a pure, injective function of its (instance, node)
// — the pair the manager holds at most one item for: the two joined by
// "/", with "/" and "%" inside the instance percent-escaped. No counter
// or arrival order enters it, so an ID or page cursor a client holds
// names the same work live, after recovery from a snapshot or by full
// replay, after a reshard and at any shard count. The manager keeps the
// pair and computes the ID on the way out, on the copies it hands out.
//
// The name belongs to the activity, not to one offer of it: an escalated
// item, or an offered one whose staff assignment changed, is re-offered
// to the new candidates under its old ID, and so is the next iteration
// of a loop. Nothing resolves an ID back to its item: commands name the
// (instance, node) pair, and the engine decides who may act.
//
// Every listing (ItemsFor, ItemsForPage, ItemsForInstance, Export) is in
// ascending ID order, and a page cursor is the last ID returned.
//
// # Index
//
// byInst owns each instance's few live items and answers (instance,
// node). byUser holds per user the items the user's worklist lists — the
// offered ones, and one the user started unoffered, having joined the role
// after the offer — as one sequence in ID order (cmpItems, which builds no
// ID) stored as blocks of at most blockSize: a lookup binary-searches the
// blocks' last items, then one block. An offer or withdrawal is
// O(log n + blockSize) and allocates only when a full block splits; a page
// is O(log n + limit) whether or not a write came before it.
//
// # Lifetime
//
// No *Item the manager holds leaves it: Offer, ItemsFor, ItemsForPage,
// ItemsForInstance, ItemFor and Export hand out clones. A withdrawn item
// is therefore cleared and put in a pool, and the next offer takes it from
// there, so a steady stream of offers and withdrawals allocates no items.
//
// # Candidates
//
// An item does not copy its candidate list: Item.Offered inside the
// manager is the slice the organizational model published for the role
// (org.Model.UsersInRole), shared by every item offered to that role
// until the role gains or loses a user. Such a slice is sorted and
// immutable — the org model replaces it instead of inserting into it — so
// an item keeps exactly the candidates it was offered with, which is what
// replay reproduces. Items handed out by the read methods are clones with
// a candidate list of their own.
package worklist

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"adept2/internal/fault"
)

// ItemState is the lifecycle state of a work item.
type ItemState uint8

const (
	// Offered: visible in the worklists of all candidate users.
	Offered ItemState = 0
	// InProgress: the activity was started. Snapshots store the value;
	// 1 was a claim, which Import reads as Offered.
	InProgress ItemState = 2
)

func (s ItemState) String() string {
	switch s {
	case Offered:
		return "offered"
	case InProgress:
		return "in-progress"
	}
	return fmt.Sprintf("item-state(%d)", uint8(s))
}

// Item is one unit of offered work.
type Item struct {
	ID        string // set on the copies handed out, empty inside the manager
	Instance  string
	Node      string
	Role      string
	Offered   []string // candidate user IDs, sorted (shared and immutable inside the manager)
	ClaimedBy string   // the user who started the item; empty while it is offered
	State     ItemState
}

func (i *Item) clone() *Item {
	c := *i
	c.ID = itemID(i.Instance, i.Node)
	c.Offered = append([]string(nil), i.Offered...)
	return &c
}

// itemID names the work item of (instance, node). The escaped instance
// contains no "/", so the first "/" splits an ID back into its pair.
func itemID(instance, node string) string {
	return idEscaper.Replace(instance) + "/" + node
}

var idEscaper = strings.NewReplacer("%", "%25", "/", "%2F")

// idPiece is what byte i of an instance becomes in an item ID, and the
// "/" that follows the instance for i == len(instance).
func idPiece(instance string, i int) string {
	switch {
	case i == len(instance):
		return "/"
	case instance[i] == '%':
		return "%25"
	case instance[i] == '/':
		return "%2F"
	}
	return instance[i : i+1]
}

// cmpItems is strings.Compare of the two items' IDs without building
// either: escaping goes byte by byte, so the pieces of the first instance
// byte that differs, or the "/" ending the shorter one, decide.
func cmpItems(a, b *Item) int {
	i := 0
	for i < len(a.Instance) && i < len(b.Instance) && a.Instance[i] == b.Instance[i] {
		i++
	}
	if c := strings.Compare(idPiece(a.Instance, i), idPiece(b.Instance, i)); c != 0 {
		return c
	}
	return strings.Compare(a.Node, b.Node) // equal instances: both pieces are the "/"
}

// cmpID is strings.Compare(itemID(instance, node), s) without the ID.
func cmpID(instance, node, s string) int {
	for i := 0; i <= len(instance); i++ {
		piece := idPiece(instance, i)
		if c := strings.Compare(piece, s[:min(len(piece), len(s))]); c != 0 {
			return c
		}
		s = s[len(piece):]
	}
	return strings.Compare(node, s)
}

const blockSize = 128

// seq is one user's sequence (see Index). No block is empty but a lone
// one, kept for the next offer.
type seq [][]*Item

// seek returns where the first item the monotone above holds for is, or
// goes: block b (the last if no earlier block's last item is above; 0 if
// there is no block) and index i in it.
func (s seq) seek(above func(*Item) bool) (b, i int) {
	b = sort.Search(len(s)-1, func(b int) bool { return above(s[b][len(s[b])-1]) })
	if b < len(s) {
		i = sort.Search(len(s[b]), func(i int) bool { return above(s[b][i]) })
	}
	return b, i
}

func (s seq) insert(it *Item) seq {
	if len(s) == 0 {
		s = seq{nil}
	}
	b, i := s.seek(func(x *Item) bool { return cmpItems(x, it) > 0 })
	if blk := s[b]; len(blk) == blockSize {
		half := blockSize / 2 // past the end of the last block, a fresh block instead
		if i == blockSize && b == len(s)-1 {
			half = blockSize
		}
		s = slices.Insert(s, b+1, append(make([]*Item, 0, blockSize), blk[half:]...))
		clear(blk[half:])
		if s[b] = blk[:half]; i >= half {
			b, i = b+1, i-half
		}
	}
	s[b] = slices.Insert(s[b], i, it)
	return s
}

func (s seq) remove(it *Item) seq {
	if b, i := s.seek(func(x *Item) bool { return cmpItems(x, it) >= 0 }); b < len(s) && i < len(s[b]) && s[b][i] == it {
		if s[b] = slices.Delete(s[b], i, i+1); len(s[b]) == 0 && len(s) > 1 {
			s = slices.Delete(s, b, b+1)
		}
	}
	return s
}

// Manager is a thread-safe worklist registry (see Index).
type Manager struct {
	mu     sync.Mutex
	byInst map[string][]*Item
	byUser map[string]seq
	n      int // live items
}

// NewManager returns an empty worklist manager.
func NewManager() *Manager {
	return &Manager{
		byUser: make(map[string]seq),
		byInst: make(map[string][]*Item),
	}
}

// find returns the item of (instance, node), or nil.
func (m *Manager) find(instance, node string) *Item {
	for _, it := range m.byInst[instance] {
		if it.Node == node {
			return it
		}
	}
	return nil
}

// relistLocked applies op — seq.insert or seq.remove — to it in the
// sequence of each of users, and of whoever started it unoffered.
func (m *Manager) relistLocked(it *Item, op func(seq, *Item) seq, users []string) {
	for _, user := range users {
		m.byUser[user] = op(m.byUser[user], it)
	}
	if _, named := slices.BinarySearch(it.Offered, it.ClaimedBy); it.State == InProgress && !named {
		m.byUser[it.ClaimedBy] = op(m.byUser[it.ClaimedBy], it)
	}
}

// indexLocked registers it — whose (instance, node) must be free — in
// every index; an instance's list starts with room for two.
func (m *Manager) indexLocked(it *Item) {
	items := m.byInst[it.Instance]
	if items == nil {
		items = make([]*Item, 0, 2)
	}
	m.byInst[it.Instance] = append(items, it)
	m.relistLocked(it, seq.insert, it.Offered)
	m.n++
}

// removeLocked drops it from every index and recycles it (see Lifetime).
// An emptied instance list stays for the reconciliation after a withdrawal
// to offer into; BatchUpdate deletes a list it leaves empty.
func (m *Manager) removeLocked(it *Item) {
	m.relistLocked(it, seq.remove, it.Offered)
	rest := m.byInst[it.Instance]
	i := slices.Index(rest, it)
	m.byInst[it.Instance] = slices.Delete(rest, i, i+1)
	m.n--
	*it = Item{}
	itemPool.Put(it)
}

// itemPool holds withdrawn items for the next offer.
var itemPool = sync.Pool{New: func() any { return new(Item) }}

// Offer creates a work item for an activated activity and offers it to the
// candidate users, given in any order; the item keeps its own sorted copy.
// At most one item exists per (instance, node).
func (m *Manager) Offer(instance, node, role string, users []string) (*Item, error) {
	users = slices.Clone(users)
	slices.Sort(users)
	m.mu.Lock()
	defer m.mu.Unlock()
	it := m.offerLocked(instance, node, role, users)
	if it == nil {
		return nil, fmt.Errorf("worklist: offer %s/%s: item already exists", instance, node)
	}
	return it.clone(), nil
}

// offerLocked creates and indexes a new item; it returns nil if one
// already exists for (instance, node). The item keeps users itself, not a
// copy: the slice must be sorted and never modified afterwards.
func (m *Manager) offerLocked(instance, node, role string, users []string) *Item {
	if m.find(instance, node) != nil {
		return nil
	}
	it := itemPool.Get().(*Item)
	*it = Item{
		Instance: instance,
		Node:     node,
		Role:     role,
		Offered:  users,
		State:    Offered,
	}
	m.indexLocked(it)
	return it
}

// Escalate replaces the activity's work item with an offer to the
// escalation role's candidates (sorted, and never modified afterwards —
// the item keeps the slice), under one lock acquisition so no reader
// observes the node item-less in between. The previous item — typically
// InProgress for the original assignee of a timed-out activity — is
// withdrawn; the replacement keeps its ID and starts in the Offered
// state.
func (m *Manager) Escalate(instance, node, role string, users []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.withdrawLocked(instance, node)
	m.offerLocked(instance, node, role, users)
}

// MarkStarted transitions the item of the given activity to InProgress. A
// starter the offer does not name (who joined the role after it) has the
// item in their worklist from then on.
func (m *Manager) MarkStarted(instance, node, user string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	it := m.find(instance, node)
	if it == nil {
		return fault.Tagf(fault.NotFound, "worklist: start %s/%s: no work item", instance, node)
	}
	// The item outlives the command. Where the offer names the user it
	// keeps the offer's string — the org model's, shared by every item —
	// and not one decoded off the wire for this command alone; for a
	// starter it does not name, the engine passes the org model's.
	if i, ok := slices.BinarySearch(it.Offered, user); ok {
		user = it.Offered[i]
	}
	m.relistLocked(it, seq.remove, nil)
	it.State = InProgress
	it.ClaimedBy = user
	m.relistLocked(it, seq.insert, nil)
	return nil
}

// Withdraw removes the item of the given activity (completion, skip, or
// migration made it obsolete). Withdrawing a non-existent item is a no-op
// so callers can withdraw defensively.
func (m *Manager) Withdraw(instance, node string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.withdrawLocked(instance, node)
}

func (m *Manager) withdrawLocked(instance, node string) {
	if it := m.find(instance, node); it != nil {
		m.removeLocked(it)
	}
}

// Wanted describes the desired work item of one node for BatchUpdate.
type Wanted struct {
	// Node is the activity the item belongs to.
	Node string
	// Role is the activity's current staff assignment.
	Role string
	// Running marks in-progress work: its item (if any) is never
	// disturbed, and no new item is offered for it (the user already
	// started the activity).
	Running bool
}

// BatchUpdate reconciles all items of one instance against the desired
// state: items of nodes not listed (or whose staff assignment changed
// while merely offered) are withdrawn, and missing items for non-running
// entries are offered. usersInRole resolves the candidate users of a role
// (sorted, and never modified afterwards — the items keep the slice); it
// is consulted at most once per distinct role in the batch, so a cascade
// touching many nodes of one role costs a single org-model resolution
// instead of one per operation. wanted is only read, and the scratch below
// is on the stack, so a reconciliation that offers nothing allocates
// nothing. The instance's item list is deleted only if empty at the end.
func (m *Manager) BatchUpdate(instance string, wanted []Wanted, usersInRole func(role string) []string) {
	// offer is one missing item: its entry in wanted and its candidates.
	type offer struct {
		w     int
		users []string
	}
	// An instance has a handful of live items; append spills past that.
	var scratch [8]offer
	missing := scratch[:0]

	// Phase 1 (locked): withdraw obsolete items, decide which offers are
	// missing. In-progress work is never disturbed; offered items whose
	// staff assignment changed are withdrawn and re-offered to the new
	// role below. A removal shifts only the items behind it, in place, so
	// walking backwards the list read once stays valid.
	m.mu.Lock()
	items := m.byInst[instance]
	for i := len(items) - 1; i >= 0; i-- {
		it := items[i]
		keep := false
		for _, w := range wanted {
			if w.Node == it.Node {
				keep = it.Role == w.Role || w.Running
				break
			}
		}
		if !keep {
			m.removeLocked(it)
		}
	}
	for i, w := range wanted {
		if !w.Running && m.find(instance, w.Node) == nil {
			missing = append(missing, offer{w: i})
		}
	}
	if len(missing) == 0 && len(m.byInst[instance]) == 0 {
		delete(m.byInst, instance) // kept by the withdrawals above until now
	}
	m.mu.Unlock()
	if len(missing) == 0 {
		return
	}

	// Phase 2 (unlocked): resolve candidate users, once per distinct role
	// — the org model must not be consulted while every other worklist
	// operation is blocked on the manager lock.
	for i := range missing {
		role := wanted[missing[i].w].Role
		resolved := false
		for _, prev := range missing[:i] {
			if wanted[prev.w].Role == role {
				missing[i].users, resolved = prev.users, true
				break
			}
		}
		if !resolved {
			missing[i].users = usersInRole(role)
		}
	}

	// Phase 3 (locked): create the missing items. An item that appeared
	// in the unlocked window is kept (offerLocked refuses duplicates) —
	// only the instance's own reconciliation creates items, and that runs
	// under the instance lock.
	m.mu.Lock()
	for _, o := range missing {
		w := wanted[o.w]
		m.offerLocked(instance, w.Node, w.Role, o.users)
	}
	m.mu.Unlock()
}

// ManagerExport is the serialized state of a worklist manager: every live
// item. Restoring it wholesale keeps each item's candidates as they were
// offered, which re-offering from markings would not.
type ManagerExport struct {
	Items []*Item `json:"items,omitempty"`
}

// Export serializes the manager state, items ordered by ID.
func (m *Manager) Export() *ManagerExport {
	m.mu.Lock()
	defer m.mu.Unlock()
	items := make([]*Item, 0, m.n)
	for _, its := range m.byInst {
		items = append(items, its...)
	}
	return &ManagerExport{Items: sortedClones(items)}
}

// sortedClones sorts items by ID and replaces each with its clone.
func sortedClones(items []*Item) []*Item {
	slices.SortFunc(items, cmpItems)
	for i, it := range items {
		items[i] = it.clone()
	}
	return items
}

// Import replaces the manager state with the exported one, rebuilding all
// indexes. Pre-existing items are dropped. An item's ID is derived from
// its instance and node, whatever the export says: a snapshot written
// when IDs came from a counter restores with the derived names, and an
// item a parent build stored as claimed (state 1) restores as Offered with
// no ClaimedBy, which is what a full replay of the same journal yields.
// The manager keeps the export's candidate lists. share, if not nil, may
// replace an item's names and list by equal ones the caller holds, as a
// live offer keeps them; a starter the list names keeps the list's string.
func (m *Manager) Import(ex *ManagerExport, share func(*Item)) error {
	fresh := NewManager() // built unlocked: share may take the caller's locks
	for _, src := range ex.Items {
		if fresh.find(src.Instance, src.Node) != nil {
			return fmt.Errorf("worklist: import: duplicate item for %s/%s", src.Instance, src.Node)
		}
		it := *src
		it.ID = ""
		if share != nil {
			share(&it)
		}
		if i, ok := slices.BinarySearch(it.Offered, it.ClaimedBy); ok {
			it.ClaimedBy = it.Offered[i]
		}
		if it.State == 1 {
			it.State, it.ClaimedBy = Offered, ""
		}
		fresh.indexLocked(&it)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.byInst, m.byUser, m.n = fresh.byInst, fresh.byUser, fresh.n
	return nil
}

// ItemsFor returns the items visible to a user (offered to or started
// by), ordered by item ID.
func (m *Manager) ItemsFor(user string) []*Item {
	items, _ := m.ItemsForPage(user, "", math.MaxInt)
	return items
}

// ItemsForPage returns up to limit (default 100) of the items visible to
// a user in item-ID order, starting above the cursor ("" starts from the
// beginning; it need not name a live item), plus the cursor for the next
// page ("" when no items follow). A page costs one search for the cursor
// plus a walk of the page.
func (m *Manager) ItemsForPage(user, cursor string, limit int) ([]*Item, string) {
	if limit <= 0 {
		limit = 100
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.byUser[user]
	b0, i0 := s.seek(func(x *Item) bool { return cmpID(x.Instance, x.Node, cursor) > 0 })
	n := -i0 // the items above the cursor, counted as far as a page reaches
	for b := b0; b < len(s) && n < limit; b++ {
		n += len(s[b])
	}
	items := make([]*Item, 0, min(limit, n))
	for b, i := b0, i0; b < len(s); b, i = b+1, 0 {
		for _, it := range s[b][i:] {
			if len(items) == limit {
				return items, items[limit-1].ID // page full with candidates left
			}
			items = append(items, it.clone())
		}
	}
	return items, ""
}

// ItemsForInstance returns all items of one instance, ordered by item ID.
func (m *Manager) ItemsForInstance(instance string) []*Item {
	m.mu.Lock()
	defer m.mu.Unlock()
	return sortedClones(append(make([]*Item, 0, len(m.byInst[instance])), m.byInst[instance]...))
}

// ItemFor returns the item of the given activity, if any.
func (m *Manager) ItemFor(instance, node string) (*Item, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	it := m.find(instance, node)
	if it == nil {
		return nil, false
	}
	return it.clone(), true
}

// Len returns the number of live items.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}
