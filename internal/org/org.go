// Package org implements the ADEPT2 organizational model: users, roles,
// and org units. Staff assignments on activities reference roles; the
// worklist manager resolves them to concrete users through this model.
//
// A role's candidate slice is immutable once published: AddUser builds a
// fresh sorted slice instead of inserting in place, UsersInRole hands the
// current one out without copying, and the work items offered to a role
// alias it. Nobody who holds one may modify it; an item offered before a
// later AddUser keeps the candidates it was offered with.
package org

import (
	"slices"
	"sort"
	"sync"
	"unicode/utf8"

	"adept2/internal/fault"
)

// User is an organizational agent.
type User struct {
	ID    string   `json:"id"`
	Name  string   `json:"name"`
	Roles []string `json:"roles"`
	Unit  string   `json:"unit,omitempty"`
}

// Reader is the read side of a Model. A System hands out its model as a
// Reader: its users change only through a journaled command.
type Reader interface {
	// User returns a copy of the user with the ID.
	User(id string) (*User, bool)
	// Users returns all user IDs, sorted.
	Users() []string
	// UsersInRole returns the IDs of the role's users, sorted; the slice
	// is shared and must not be modified.
	UsersInRole(role string) []string
}

// Model is a thread-safe registry of users and roles.
type Model struct {
	mu    sync.RWMutex
	users map[string]*User
	roles map[string][]string // role -> user IDs (sorted; each slice immutable, see the package doc)
}

func (u *User) clone() *User {
	cp := *u
	cp.Roles = append([]string(nil), u.Roles...)
	return &cp
}

// NewModel returns an empty organizational model.
func NewModel() *Model {
	return &Model{
		users: make(map[string]*User),
		roles: make(map[string][]string),
	}
}

// AddUser registers a user.
func (m *Model) AddUser(u *User) error {
	if u == nil || u.ID == "" {
		return fault.Tagf(fault.Invalid, "org: add user: empty ID")
	}
	// The journal and the snapshot write JSON, which carries a string that
	// is not UTF-8 only as U+FFFD: such a user would change across a reopen.
	for _, s := range append([]string{u.ID, u.Name, u.Unit}, u.Roles...) {
		if !utf8.ValidString(s) {
			return fault.Tagf(fault.Invalid, "org: add user %q: %q is not UTF-8", u.ID, s)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.users[u.ID]; dup {
		return fault.Tagf(fault.Conflict, "org: add user %q: duplicate ID", u.ID)
	}
	cp := u.clone()
	m.users[u.ID] = cp
	for _, r := range cp.Roles {
		m.roles[r] = insertSorted(m.roles[r], u.ID)
	}
	return nil
}

// User returns a copy of the user with the ID.
func (m *Model) User(id string) (*User, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	u, ok := m.users[id]
	if !ok {
		return nil, false
	}
	return u.clone(), true
}

// UsersInRole returns the IDs of all users holding the role, sorted. The
// slice is shared and immutable (see the package doc): callers must not
// modify it.
func (m *Model) UsersInRole(role string) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.roles[role]
}

// HasRole reports whether the user holds the role and, if so, returns the
// model's own string for the user ID — the one a caller that keeps the ID
// should keep, as the role's candidate slices do.
func (m *Model) HasRole(userID, role string) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	u, ok := m.users[userID]
	if !ok || !slices.Contains(u.Roles, role) {
		return "", false
	}
	return u.ID, true
}

// Role returns the model's own string for a role some user holds, and
// false when no user holds it.
func (m *Model) Role(role string) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ids := m.roles[role]
	if len(ids) == 0 {
		return "", false
	}
	roles := m.users[ids[0]].Roles
	return roles[slices.Index(roles, role)], true
}

// Clone returns a deep copy of the model. Recovery restores snapshots
// into a clone so a failed attempt cannot leak users into the model the
// fallback attempt starts from.
func (m *Model) Clone() *Model {
	c := NewModel()
	for _, u := range m.AllUsers() {
		_ = c.AddUser(u) // users from a valid model re-add cleanly
	}
	return c
}

// AllUsers returns deep copies of all users, sorted by ID — the stable
// serialized form snapshots record.
func (m *Model) AllUsers() []*User {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*User, 0, len(m.users))
	for _, u := range m.users {
		out = append(out, u.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Users returns all user IDs, sorted.
func (m *Model) Users() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ids := make([]string, 0, len(m.users))
	for id := range m.users {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// insertSorted returns ss with s inserted in order, as a fresh slice: ss
// itself, which readers and work items may hold, is left untouched.
func insertSorted(ss []string, s string) []string {
	i := sort.SearchStrings(ss, s)
	if i < len(ss) && ss[i] == s {
		return ss
	}
	return slices.Concat(ss[:i], []string{s}, ss[i:])
}
