package worklist

import (
	"encoding/json"
	"reflect"
	"testing"

	"adept2/internal/fault"
)

func TestOfferClaimStartWithdraw(t *testing.T) {
	m := NewManager()
	it, err := m.Offer("i1", "a", "clerk", []string{"bob", "ann"})
	if err != nil {
		t.Fatalf("offer: %v", err)
	}
	if it.State != Offered || len(it.Offered) != 2 || it.Offered[0] != "ann" {
		t.Fatalf("item = %+v", it)
	}
	if _, err := m.Offer("i1", "a", "clerk", nil); err == nil {
		t.Fatal("duplicate offer must fail")
	}
	if err := m.Claim(it.ID, "zoe"); err == nil {
		t.Fatal("claim by non-candidate must fail")
	}
	if err := m.Claim(it.ID, "ann"); err != nil {
		t.Fatalf("claim: %v", err)
	}
	if err := m.Claim(it.ID, "bob"); err == nil {
		t.Fatal("double claim must fail")
	}
	// Bob no longer sees the claimed item; Ann does.
	if got := m.ItemsFor("bob"); len(got) != 0 {
		t.Fatalf("bob sees %v", got)
	}
	if got := m.ItemsFor("ann"); len(got) != 1 {
		t.Fatalf("ann sees %v", got)
	}
	if err := m.Release(it.ID, "bob"); err == nil {
		t.Fatal("release by non-claimer must fail")
	}
	if err := m.Release(it.ID, "ann"); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := m.MarkStarted("i1", "a", "bob"); err != nil {
		t.Fatalf("start: %v", err)
	}
	got, ok := m.ItemFor("i1", "a")
	if !ok || got.State != InProgress || got.ClaimedBy != "bob" {
		t.Fatalf("ItemFor = %+v, %v", got, ok)
	}
	m.Withdraw("i1", "a")
	if m.Len() != 0 {
		t.Fatal("withdraw failed")
	}
	m.Withdraw("i1", "a") // no-op
	if _, ok := m.ItemFor("i1", "a"); ok {
		t.Fatal("item should be gone")
	}
}

func TestClaimConflictsAndErrors(t *testing.T) {
	m := NewManager()
	if err := m.Claim("nope", "ann"); err == nil {
		t.Fatal("claim unknown item")
	}
	if err := m.Release("nope", "ann"); err == nil {
		t.Fatal("release unknown item")
	}
	if err := m.MarkStarted("i", "n", "u"); err == nil {
		t.Fatal("start without item")
	}
	it, err := m.Offer("i1", "a", "clerk", []string{"ann"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Claim(it.ID, "ann"); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkStarted("i1", "a", "zoe"); err == nil {
		t.Fatal("start of claimed item by other user must fail")
	}
	if err := m.MarkStarted("i1", "a", "ann"); err != nil {
		t.Fatal(err)
	}
}

func TestItemsForInstance(t *testing.T) {
	m := NewManager()
	if _, err := m.Offer("i1", "a", "r", []string{"u"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Offer("i1", "b", "r", []string{"u"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Offer("i2", "a", "r", []string{"u"}); err != nil {
		t.Fatal(err)
	}
	if got := m.ItemsForInstance("i1"); len(got) != 2 {
		t.Fatalf("i1 items = %v", got)
	}
	if got := m.ItemsForInstance("i3"); len(got) != 0 {
		t.Fatalf("i3 items = %v", got)
	}
}

func TestBatchUpdateReconciles(t *testing.T) {
	m := NewManager()
	resolutions := 0
	users := func(role string) []string {
		resolutions++
		if role == "sales" {
			return []string{"cyn"}
		}
		return []string{"ann", "bob"}
	}

	// Initial batch: two activated nodes of one role — one org resolution.
	m.BatchUpdate("i1", []Wanted{
		{Node: "a", Role: "clerk"},
		{Node: "b", Role: "clerk"},
	}, users)
	if m.Len() != 2 || resolutions != 1 {
		t.Fatalf("after initial batch: len=%d resolutions=%d", m.Len(), resolutions)
	}
	itA, ok := m.ItemFor("i1", "a")
	if !ok || itA.Role != "clerk" || itA.State != Offered {
		t.Fatalf("item a = %+v", itA)
	}

	// Re-running the same batch keeps the existing items untouched.
	m.BatchUpdate("i1", []Wanted{
		{Node: "a", Role: "clerk"},
		{Node: "b", Role: "clerk"},
	}, users)
	if again, _ := m.ItemFor("i1", "a"); again.ID != itA.ID {
		t.Fatal("unchanged batch replaced an existing item")
	}

	// b leaves the wanted set; c joins with a different role.
	m.BatchUpdate("i1", []Wanted{
		{Node: "a", Role: "clerk"},
		{Node: "c", Role: "sales"},
	}, users)
	if _, ok := m.ItemFor("i1", "b"); ok {
		t.Fatal("obsolete item not withdrawn")
	}
	if _, ok := m.ItemFor("i1", "c"); !ok {
		t.Fatal("new item not offered")
	}

	// A role change on an offered item — even a claimed one — withdraws
	// it and re-offers it to the new role's candidates under its old name.
	if err := m.Claim(itA.ID, "ann"); err != nil {
		t.Fatal(err)
	}
	m.BatchUpdate("i1", []Wanted{
		{Node: "a", Role: "sales"},
		{Node: "c", Role: "sales"},
	}, users)
	reoffered, ok := m.ItemFor("i1", "a")
	if !ok || reoffered.Role != "sales" || reoffered.State != Offered || reoffered.ClaimedBy != "" ||
		!reflect.DeepEqual(reoffered.Offered, []string{"cyn"}) || reoffered.ID != itA.ID {
		t.Fatalf("role change not re-offered: %+v", reoffered)
	}
	if got := m.ItemsFor("ann"); len(got) != 0 {
		t.Fatalf("ann still sees %v after the role change", got)
	}

	// Running work is never disturbed, even across a role change, and no
	// item is created for running nodes without one.
	if err := m.MarkStarted("i1", "a", "ann"); err != nil {
		t.Fatal(err)
	}
	m.BatchUpdate("i1", []Wanted{
		{Node: "a", Role: "clerk", Running: true},
		{Node: "d", Role: "sales", Running: true},
	}, users)
	kept, ok := m.ItemFor("i1", "a")
	if !ok || kept.State != InProgress || kept.ID != reoffered.ID {
		t.Fatalf("running item disturbed: %+v", kept)
	}
	if _, ok := m.ItemFor("i1", "d"); ok {
		t.Fatal("item offered for running node without one")
	}
	if _, ok := m.ItemFor("i1", "c"); ok {
		t.Fatal("item c should have been withdrawn")
	}

	// Other instances are untouched throughout.
	if _, err := m.Offer("i2", "a", "clerk", []string{"zoe"}); err != nil {
		t.Fatal(err)
	}
	m.BatchUpdate("i1", nil, users)
	if _, ok := m.ItemFor("i2", "a"); !ok {
		t.Fatal("batch update leaked into other instance")
	}
	if _, ok := m.ItemFor("i1", "a"); ok {
		t.Fatal("empty batch must withdraw everything of the instance")
	}
}

func TestItemStateString(t *testing.T) {
	if Offered.String() != "offered" || Claimed.String() != "claimed" || InProgress.String() != "in-progress" {
		t.Fatal("state strings")
	}
	if ItemState(9).String() == "" {
		t.Fatal("out-of-range string")
	}
}

// TestImportParentFormat: a snapshot written when item IDs came from a
// counter ("seq", "wi-N") restores with the derived names in their place;
// claims survive, the old names mean nothing.
func TestImportParentFormat(t *testing.T) {
	const parent = `{"seq":7,"items":[
		{"id":"wi-3","Instance":"inst-000002","Node":"pack_goods","Role":"warehouse","Offered":["bob","cyn"],"ClaimedBy":"bob","State":1},
		{"id":"wi-7","Instance":"inst-000001","Node":"get_order","Role":"clerk","Offered":["ann"],"State":0}]}`
	var ex ManagerExport
	if err := json.Unmarshal([]byte(parent), &ex); err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	if err := m.Import(&ex); err != nil {
		t.Fatal(err)
	}
	it, ok := m.ItemFor("inst-000002", "pack_goods")
	if !ok || it.ID != "inst-000002/pack_goods" || it.State != Claimed || it.ClaimedBy != "bob" {
		t.Fatalf("imported item = %+v", it)
	}
	if err := m.Claim("wi-3", "cyn"); fault.KindOf(err) != fault.NotFound {
		t.Fatalf("claim by the counter name: %v, want not-found", err)
	}
	if err := m.Release(it.ID, "bob"); err != nil {
		t.Fatal(err)
	}
	if got := m.ItemsFor("ann"); len(got) != 1 || got[0].ID != "inst-000001/get_order" {
		t.Fatalf("ann sees %+v", got)
	}
	// What Export writes now imports to the same state.
	m2 := NewManager()
	if err := m2.Import(m.Export()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Export(), m2.Export()) {
		t.Fatal("export → import → export is not a fixpoint")
	}

	ex.Items = append(ex.Items, &Item{ID: "wi-9", Instance: "inst-000001", Node: "get_order"})
	if err := NewManager().Import(&ex); err == nil {
		t.Fatal("two items for one (instance, node) must be refused")
	}
}
