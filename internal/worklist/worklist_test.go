package worklist

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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
	if err := m.MarkStarted("i9", "a", "bob"); fault.KindOf(err) != fault.NotFound {
		t.Fatalf("start without an item: %v, want not-found", err)
	}
	if err := m.MarkStarted("i1", "a", "bob"); err != nil {
		t.Fatalf("start: %v", err)
	}
	got, ok := m.ItemFor("i1", "a")
	if !ok || got.State != InProgress || got.ClaimedBy != "bob" {
		t.Fatalf("ItemFor = %+v, %v", got, ok)
	}
	// Both candidates still list the started item.
	for _, user := range []string{"ann", "bob"} {
		if got := m.ItemsFor(user); len(got) != 1 || got[0].State != InProgress {
			t.Fatalf("%s sees %+v", user, got)
		}
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

	// A role change on an offered item withdraws it and re-offers it to
	// the new role's candidates under its old name.
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
	if Offered.String() != "offered" || InProgress.String() != "in-progress" {
		t.Fatal("state strings")
	}
	if ItemState(1).String() != "item-state(1)" || ItemState(9).String() == "" {
		t.Fatal("out-of-range string")
	}
}

// TestImportParentFormat: a snapshot written when item IDs came from a
// counter ("seq", "wi-N") restores with the derived names in their place,
// and a claim (state 1) restores as an offer.
func TestImportParentFormat(t *testing.T) {
	const parent = `{"seq":7,"items":[
		{"id":"wi-3","Instance":"inst-000002","Node":"pack_goods","Role":"warehouse","Offered":["bob","cyn"],"ClaimedBy":"bob","State":1},
		{"id":"wi-7","Instance":"inst-000001","Node":"get_order","Role":"clerk","Offered":["ann"],"State":0}]}`
	var ex ManagerExport
	if err := json.Unmarshal([]byte(parent), &ex); err != nil {
		t.Fatal(err)
	}
	m := NewManager()
	if err := m.Import(&ex, nil); err != nil {
		t.Fatal(err)
	}
	// The claim (state 1) reads as an offer, as a full replay has it.
	it, ok := m.ItemFor("inst-000002", "pack_goods")
	if !ok || it.ID != "inst-000002/pack_goods" || it.State != Offered || it.ClaimedBy != "" {
		t.Fatalf("imported item = %+v", it)
	}
	if got := m.ItemsFor("cyn"); len(got) != 1 || got[0].ID != it.ID {
		t.Fatalf("cyn sees %+v", got)
	}
	if got := m.ItemsFor("ann"); len(got) != 1 || got[0].ID != "inst-000001/get_order" {
		t.Fatalf("ann sees %+v", got)
	}
	// What Export writes now imports to the same state.
	m2 := NewManager()
	if err := m2.Import(m.Export(), nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Export(), m2.Export()) {
		t.Fatal("export → import → export is not a fixpoint")
	}

	ex.Items = append(ex.Items, &Item{ID: "wi-9", Instance: "inst-000001", Node: "get_order"})
	if err := NewManager().Import(&ex, nil); err == nil {
		t.Fatal("two items for one (instance, node) must be refused")
	}
}

// TestLateStarterSeesTheItem: a user who joined the role after the offer
// may start its item (the engine checks the org model's current roles);
// from then on the item is in their worklist too — after an export and
// import as well — until it is withdrawn.
func TestLateStarterSeesTheItem(t *testing.T) {
	m := NewManager()
	it, err := m.Offer("i1", "a", "clerk", []string{"ann", "cyn"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.MarkStarted("i1", "a", "eve"); err != nil {
		t.Fatal(err)
	}
	restored := NewManager()
	if err := restored.Import(m.Export(), nil); err != nil {
		t.Fatal(err)
	}
	for _, wl := range []*Manager{m, restored} {
		for _, user := range []string{"ann", "cyn", "eve"} {
			if got := wl.ItemsFor(user); len(got) != 1 || got[0].ID != it.ID || got[0].State != InProgress || got[0].ClaimedBy != "eve" {
				t.Fatalf("%s sees %+v, want the item eve started", user, got)
			}
		}
	}
	m.Withdraw("i1", "a")
	if got := m.ItemsFor("eve"); len(got) != 0 {
		t.Fatalf("eve sees %+v after the withdrawal", got)
	}
}

// TestWithdrawalAndOfferAllocateNothing: in steady state a withdrawal
// and the reconciliation after it allocate nothing — the offer takes the
// Item the withdrawal recycled, and builds no ID string, no item list and
// no index entry. (It allocated the one Item while withdrawn items were
// dropped.)
func TestWithdrawalAndOfferAllocateNothing(t *testing.T) {
	m := NewManager()
	users := []string{"ann", "bob"}
	for i := 0; i < 1000; i++ {
		if _, err := m.Offer(fmt.Sprintf("inst-%06d", i), "a", "r", users); err != nil {
			t.Fatal(err)
		}
	}
	inst, nodes := "inst-000500", [2]string{"a", "b"}
	byRole := func(string) []string { return users }
	step := 0
	allocs := testing.AllocsPerRun(100, func() {
		m.Withdraw(inst, nodes[step%2])
		m.BatchUpdate(inst, []Wanted{{Node: nodes[(step+1)%2], Role: "r"}}, byRole)
		step++
	})
	if allocs != 0 {
		t.Fatalf("a withdrawal and the offer after it allocate %.0f objects, want 0", allocs)
	}
}

// TestNoItemLeavesTheManager: items are recycled, which is sound only
// while no *Item the manager holds is handed out. Every item the read and
// offer methods return is mutated, field by field and candidate by
// candidate, and the manager's state is what it was. A started item that
// is withdrawn and recycled into the next offer comes back Offered, with no
// starter.
func TestNoItemLeavesTheManager(t *testing.T) {
	m := NewManager()
	var handed []*Item
	for i := 0; i < 3; i++ {
		it, err := m.Offer(fmt.Sprintf("inst-%d", i), "a", "r", []string{"bob", "ann"})
		if err != nil {
			t.Fatal(err)
		}
		handed = append(handed, it)
	}
	if err := m.MarkStarted("inst-1", "a", "eve"); err != nil {
		t.Fatal(err)
	}
	want := m.Export()
	page, _ := m.ItemsForPage("ann", "", 2)
	handed = append(handed, page...)
	handed = append(handed, m.ItemsFor("eve")...)
	handed = append(handed, m.ItemsForInstance("inst-2")...)
	it, _ := m.ItemFor("inst-0", "a")
	handed = append(handed, it)
	handed = append(handed, m.Export().Items...)
	for _, it := range handed {
		it.ID, it.Instance, it.Node, it.Role = "x", "x", "x", "x"
		for i := range it.Offered {
			it.Offered[i] = "x"
		}
		it.ClaimedBy, it.State = "x", InProgress
	}
	if got := m.Export(); !reflect.DeepEqual(got, want) {
		t.Fatalf("mutating the handed-out items changed the manager:\n got %+v\nwant %+v", got.Items, want.Items)
	}

	// Start, complete (the engine withdraws the item) and offer the next
	// node: whether or not the offer reuses the started item, it is fresh.
	if err := m.MarkStarted("inst-0", "a", "ann"); err != nil {
		t.Fatal(err)
	}
	m.Withdraw("inst-0", "a")
	m.BatchUpdate("inst-0", []Wanted{{Node: "b", Role: "r"}}, func(string) []string { return []string{"ann"} })
	next, ok := m.ItemFor("inst-0", "b")
	if !ok || next.State != Offered || next.ClaimedBy != "" || !slices.Equal(next.Offered, []string{"ann"}) {
		t.Fatalf("the offer after a started item's withdrawal is %+v, %v; want offered to ann, unstarted", next, ok)
	}
	if _, ok := m.ItemFor("inst-0", "a"); ok {
		t.Fatal("the withdrawn item is still there")
	}
}

// TestWorklistPageAllocations: a 50-item page read right after a write
// costs what it costs with no write before it — at 2 000 items and at
// 40 000 alike, the same objects and the same bytes within 1 KB — because
// a write keeps the user's sequence in order instead of invalidating it.
func TestWorklistPageAllocations(t *testing.T) {
	const runs = 20
	users := []string{"u"}
	for _, n := range []int{2000, 40000} {
		m := NewManager()
		for i := 0; i < n; i++ {
			if _, err := m.Offer(fmt.Sprintf("inst-%06d", i), "n", "r", users); err != nil {
				t.Fatal(err)
			}
		}
		// page returns what one page read allocates, averaged over runs,
		// with or without an offer right before it.
		page := func(write bool) (objects, bytes float64) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			for r := 0; r < runs; r++ {
				if write {
					if _, err := m.Offer(fmt.Sprintf("w-%d", r), "n", "r", users); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&before)
				if items, _ := m.ItemsForPage("u", "", 50); len(items) != 50 {
					t.Fatalf("page of %d items, want 50", len(items))
				}
				runtime.ReadMemStats(&after)
				objects += float64(after.Mallocs - before.Mallocs)
				bytes += float64(after.TotalAlloc - before.TotalAlloc)
				m.Withdraw(fmt.Sprintf("w-%d", r), "n")
			}
			return objects / runs, bytes / runs
		}
		quietObjects, quietBytes := page(false)
		objects, bytes := page(true)
		t.Logf("%d items: a page allocates %.1f objects, %.0f B after a write; %.1f, %.0f B without", n, objects, bytes, quietObjects, quietBytes)
		if objects != quietObjects || math.Abs(bytes-quietBytes) > 1024 {
			t.Errorf("%d items: a page after a write allocates %.1f objects, %.0f B; without one %.1f, %.0f B", n, objects, bytes, quietObjects, quietBytes)
		}
	}
}

// TestIndexMatchesExport: random offers, withdrawals, starts (by
// candidates and by a late member), escalations,
// reconciliations and imports over instance IDs chosen to stress the ID
// order — zero-padded counters, prefix pairs, "%" and "/" inside — and
// after every operation each user's paged walk, from the start and from a
// random cursor, is the Export's IDs the user may see in strings.Compare
// order, Len is the live count, and every user's blocks hold the shape
// the index promises. Offers give way to withdrawals two thirds of the
// way, so the lists grow past a block, split, and empty blocks again.
func TestIndexMatchesExport(t *testing.T) {
	insts := []string{"a", "a-b", "a0", "a/", "a/b", "a%", "a%2F", "a%25", "%", "/", "", "inst-1000000"}
	for i := 0; i < 300; i++ {
		insts = append(insts, fmt.Sprintf("inst-%06d", i*7%300))
	}
	nodes := []string{"n1", "n2", "x/y", ""}
	users := []string{"ann", "bob", "cyn", "late"}
	roles := map[string][]string{"r1": {"ann", "bob"}, "r2": {"bob", "cyn"}, "r3": {"cyn"}}
	rng := rand.New(rand.NewSource(1))
	pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
	role := func() string { return pick([]string{"r1", "r2", "r3"}) }
	byRole := func(r string) []string { return roles[r] }
	m := NewManager()
	blocks := 0 // the most blocks a user held
	const steps = 3000
	for step := 0; step < steps; step++ {
		live := m.Export().Items
		inst, node, user := pick(insts), pick(nodes), pick(users)
		if len(live) > 0 && rng.Intn(2) == 0 {
			it := live[rng.Intn(len(live))]
			inst, node = it.Instance, it.Node
		}
		switch op := rng.Intn(8); {
		case op < 3 && step < steps*2/3:
			r := role()
			m.Offer(inst, node, r, roles[r])
		case op <= 3:
			m.Withdraw(inst, node)
		case op == 4:
			m.MarkStarted(inst, node, user)
		case op == 5 && step < steps*2/3:
			r := role()
			m.Escalate(inst, node, r, roles[r])
		case op == 6:
			var wanted []Wanted
			for _, n := range nodes {
				if rng.Intn(2) == 0 {
					wanted = append(wanted, Wanted{Node: n, Role: role(), Running: rng.Intn(3) == 0})
				}
			}
			m.BatchUpdate(inst, wanted, byRole)
		case op == 7:
			if rng.Intn(20) == 0 {
				if err := m.Import(m.Export(), nil); err != nil {
					t.Fatal(err)
				}
			}
		}

		ex := m.Export().Items
		if m.Len() != len(ex) {
			t.Fatalf("step %d: Len %d, %d live items", step, m.Len(), len(ex))
		}
		for i, it := range ex {
			if it.ID != itemID(it.Instance, it.Node) || i > 0 && ex[i-1].ID >= it.ID {
				t.Fatalf("step %d: export item %d is %q after %q", step, i, it.ID, ex[max(i-1, 0)].ID)
			}
		}
		cursor := itemID(pick(insts), pick(nodes))
		for _, u := range users {
			var want []string
			for _, it := range ex {
				_, named := slices.BinarySearch(it.Offered, u)
				if named || it.State == InProgress && it.ClaimedBy == u {
					want = append(want, it.ID)
				}
			}
			for _, from := range []string{"", cursor} {
				var got []string
				for at := from; ; {
					page, next := m.ItemsForPage(u, at, 1+rng.Intn(40))
					for _, it := range page {
						got = append(got, it.ID)
					}
					if at = next; at == "" {
						break
					}
				}
				start, _ := slices.BinarySearch(want, from+"\x00") // the first ID above from
				if fmt.Sprint(got) != fmt.Sprint(want[start:]) {
					t.Fatalf("step %d: %s's walk from %q is\n%q, want\n%q", step, u, from, got, want[start:])
				}
			}
			s := m.byUser[u]
			blocks = max(blocks, len(s))
			for _, blk := range s {
				if len(blk) > blockSize || len(blk) == 0 && len(s) > 1 {
					t.Fatalf("step %d: %s has a block of %d in %d blocks", step, u, len(blk), len(s))
				}
			}
		}
	}
	left := len(m.byUser["bob"])
	t.Logf("%d live items at the end; a user held up to %d blocks, bob %d at the end", m.Len(), blocks, left)
	if blocks < 3 || left >= blocks {
		t.Fatalf("a user held at most %d blocks and %d at the end: the walk split and dropped too little", blocks, left)
	}
}
