package worklist

import (
	"fmt"
	"strings"
	"testing"

	"adept2/internal/fault"
)

// FuzzItemIDAndCursor guards the two strings of the worklist a peer holds
// and sends back: item IDs and page cursors. Distinct (instance, node)
// pairs — including ones that contain the ID's separator or its escape —
// get distinct IDs and are offered and claimed separately; and from any
// cursor string a paged walk returns strictly ascending IDs above the
// cursor, terminates, and visits every visible item above the cursor
// exactly once (all of them from ""). A claim of the cursor, or of a near
// miss of a live ID — an escape lower-cased or cut short, a "%" appended
// to it or to its instance, its "/" dropped — finds an item iff the string
// is exactly a live item's ID, and is refused as not found otherwise.
func FuzzItemIDAndCursor(f *testing.F) {
	f.Add("inst-000001", "get_order", "inst-000002", "get_order", "", 2)
	f.Fuzz(func(t *testing.T, instA, nodeA, instB, nodeB, cursor string, limit int) {
		m := NewManager()
		both := []string{"u", "v"}
		a, err := m.Offer(instA, nodeA, "r", both)
		if err != nil {
			t.Fatalf("offer A: %v", err)
		}
		same := instA == instB && nodeA == nodeB
		b, err := m.Offer(instB, nodeB, "r", both)
		if same != (err != nil) {
			t.Fatalf("offer B (same pair: %v): %v", same, err)
		}
		if !same && a.ID == b.ID {
			t.Fatalf("(%q, %q) and (%q, %q) share the ID %q", instA, nodeA, instB, nodeB, a.ID)
		}
		// A background population around them (a pair the fuzzer happened
		// to pick is simply already there), part of it reserved by v and
		// so invisible to u.
		for i := 0; i < 9; i++ {
			it, err := m.Offer(fmt.Sprintf("inst-%06d", i/3), fmt.Sprintf("n%d", i), "r", both)
			if err == nil && i%4 == 0 {
				if err := m.Claim(it.ID, "v"); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := m.Claim(a.ID, "u"); err != nil {
			t.Fatalf("claim A: %v", err)
		}
		if !same {
			if it, _ := m.ItemFor(instB, nodeB); it.State != Offered {
				t.Fatalf("claiming %q changed %q: %+v", a.ID, b.ID, it)
			}
			if err := m.Claim(b.ID, "v"); err != nil {
				t.Fatalf("claim B: %v", err)
			}
		}

		for _, from := range []string{"", cursor} {
			var want []string
			for _, it := range m.Export().Items { // ascending ID
				if it.ID > from && !(it.State == Claimed && it.ClaimedBy != "u") {
					want = append(want, it.ID)
				}
			}
			var got []string
			last := from
			for at, pages := from, 0; ; pages++ {
				if pages > len(want) {
					t.Fatalf("walk from %q (limit %d) does not terminate", from, limit)
				}
				items, next := m.ItemsForPage("u", at, limit)
				for _, it := range items {
					if it.ID <= last {
						t.Fatalf("walk from %q: %q follows %q", from, it.ID, last)
					}
					last = it.ID
					got = append(got, it.ID)
				}
				if next == "" {
					break
				}
				if next != last {
					t.Fatalf("walk from %q: next cursor %q, last item returned %q", from, next, last)
				}
				at = next
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("walk from %q (limit %d) visited %q, want %q", from, limit, got, want)
			}
		}

		live := map[string]bool{}
		tries := []string{cursor}
		for _, it := range m.Export().Items {
			live[it.ID] = true
			tries = append(tries, it.ID, strings.ReplaceAll(it.ID, "%2F", "%2f"), nearMiss.Replace(it.ID),
				it.ID+"%", strings.Replace(it.ID, "/", "%/", 1), strings.Replace(it.ID, "/", "", 1))
		}
		for _, s := range tries {
			if err := m.Claim(s, "u"); (fault.KindOf(err) == fault.NotFound) == live[s] {
				t.Fatalf("claim %q (a live ID: %v): %v", s, live[s], err)
			}
		}
	})
}

// nearMiss cuts every escape of an ID short.
var nearMiss = strings.NewReplacer("%25", "%2", "%2F", "%2")
