package org

import (
	"testing"
	"unsafe"
)

func demoModel(t *testing.T) *Model {
	t.Helper()
	m := NewModel()
	users := []*User{
		{ID: "ann", Name: "Ann", Roles: []string{"clerk", "sales"}},
		{ID: "bob", Name: "Bob", Roles: []string{"clerk"}},
		{ID: "cyn", Name: "Cyn", Roles: []string{"warehouse"}, Unit: "logistics"},
	}
	for _, u := range users {
		if err := m.AddUser(u); err != nil {
			t.Fatalf("add user: %v", err)
		}
	}
	return m
}

func TestModelLookup(t *testing.T) {
	m := demoModel(t)
	u, ok := m.User("ann")
	if !ok || u.Name != "Ann" {
		t.Fatalf("User(ann) = %+v, %v", u, ok)
	}
	if _, ok := m.User("zz"); ok {
		t.Fatal("unknown user found")
	}
	if got := m.UsersInRole("clerk"); len(got) != 2 || got[0] != "ann" || got[1] != "bob" {
		t.Fatalf("UsersInRole(clerk) = %v", got)
	}
	if got := m.UsersInRole("none"); len(got) != 0 {
		t.Fatalf("UsersInRole(none) = %v", got)
	}
	has := func(user, role string) bool { _, ok := m.HasRole(user, role); return ok }
	if !has("ann", "sales") || has("bob", "sales") || has("zz", "clerk") {
		t.Fatal("HasRole broken")
	}
	if id, _ := m.HasRole(string([]byte("ann")), "sales"); id != "ann" || unsafe.StringData(id) != unsafe.StringData(u.ID) {
		t.Fatalf("HasRole returned %q at %p, not the model's %q at %p", id, unsafe.StringData(id), u.ID, unsafe.StringData(u.ID))
	}
	if got := m.Users(); len(got) != 3 || got[0] != "ann" {
		t.Fatalf("Users = %v", got)
	}
}

func TestModelErrors(t *testing.T) {
	m := demoModel(t)
	if err := m.AddUser(&User{ID: "ann"}); err == nil {
		t.Fatal("duplicate user must fail")
	}
	if err := m.AddUser(&User{}); err == nil {
		t.Fatal("empty ID must fail")
	}
	if err := m.AddUser(nil); err == nil {
		t.Fatal("nil user must fail")
	}
}

func TestAddUserCopiesInput(t *testing.T) {
	m := NewModel()
	u := &User{ID: "x", Roles: []string{"r"}}
	if err := m.AddUser(u); err != nil {
		t.Fatal(err)
	}
	u.Roles[0] = "mutated"
	if _, ok := m.HasRole("x", "r"); !ok {
		t.Fatal("model must copy the roles slice")
	}
}

// TestCandidateSlicesAreImmutable: UsersInRole hands out the model's own
// slice, so AddUser must publish a new one and leave every slice a caller
// (or a work item) already holds as it was.
func TestCandidateSlicesAreImmutable(t *testing.T) {
	m := demoModel(t)
	before := m.UsersInRole("clerk")
	if err := m.AddUser(&User{ID: "abe", Roles: []string{"clerk"}}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddUser(&User{ID: "zoe", Roles: []string{"clerk"}}); err != nil {
		t.Fatal(err)
	}
	if len(before) != 2 || before[0] != "ann" || before[1] != "bob" {
		t.Fatalf("slice handed out before AddUser changed to %v", before)
	}
	if full := before[:cap(before)]; len(full) > 2 && (full[2] == "abe" || full[2] == "zoe") {
		t.Fatalf("AddUser wrote into the spare capacity of a published slice: %v", full)
	}
	after := m.UsersInRole("clerk")
	if len(after) != 4 || after[0] != "abe" || after[1] != "ann" || after[2] != "bob" || after[3] != "zoe" {
		t.Fatalf("UsersInRole(clerk) = %v", after)
	}
	if again := m.UsersInRole("clerk"); &again[0] != &after[0] {
		t.Fatal("UsersInRole copied the role's slice")
	}
}
