package worklist

import (
	"fmt"
	"slices"
	"testing"
)

// FuzzItemIDAndCursor guards the two strings of the worklist a peer holds
// and sends back: item IDs and page cursors. Distinct (instance, node)
// pairs — including ones that contain the ID's separator or its escape —
// get distinct IDs and are offered and started separately; and from any
// cursor string a paged walk returns strictly ascending IDs above the
// cursor, terminates, and visits every visible item above the cursor
// exactly once (all of them from "").
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
		// to pick is simply already there), part of it offered to v alone
		// and so invisible to u.
		for i := 0; i < 9; i++ {
			users := both
			if i%4 == 0 {
				users = []string{"v"}
			}
			m.Offer(fmt.Sprintf("inst-%06d", i/3), fmt.Sprintf("n%d", i), "r", users)
		}
		if err := m.MarkStarted(instA, nodeA, "u"); err != nil {
			t.Fatalf("start A: %v", err)
		}
		if !same {
			if it, _ := m.ItemFor(instB, nodeB); it.State != Offered {
				t.Fatalf("starting %q changed %q: %+v", a.ID, b.ID, it)
			}
			if err := m.MarkStarted(instB, nodeB, "v"); err != nil {
				t.Fatalf("start B: %v", err)
			}
		}

		for _, from := range []string{"", cursor} {
			var want []string
			for _, it := range m.Export().Items { // ascending ID
				if it.ID > from && slices.Contains(it.Offered, "u") {
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
	})
}
