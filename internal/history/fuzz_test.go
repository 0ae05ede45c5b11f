package history

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// refEvent is the Event this package had while an event's reads and
// writes were two Go maps, field for field and tag for tag. Its
// encoding/json form is the format every journal-era snapshot holds, and
// the reference FuzzLogJSON holds the hand-written codec to.
type refEvent struct {
	Seq      int            `json:"seq"`
	Kind     Kind           `json:"kind"`
	Node     string         `json:"node"`
	User     string         `json:"user,omitempty"`
	Decision int            `json:"decision,omitempty"`
	Again    bool           `json:"again,omitempty"`
	Reads    map[string]any `json:"reads,omitempty"`
	Writes   map[string]any `json:"writes,omitempty"`
	Reason   string         `json:"reason,omitempty"`
	At       int64          `json:"at,omitempty"`
}

// wellFormed reports whether a log the reference decoder accepted keeps
// the rules Log.UnmarshalJSON adds to it: sequence numbers 1…n in order,
// a decision that fits the event's 32 bits, reads only on a Started event
// and writes only on a Completed one.
func wellFormed(ref []*refEvent) bool {
	for i, e := range ref {
		switch {
		case e == nil, e.Seq != i+1, e.Decision != int(int32(e.Decision)),
			len(e.Reads) > 0 && e.Kind != Started, len(e.Writes) > 0 && e.Kind != Completed:
			return false
		}
	}
	return true
}

// event builds the Event that holds the reference event's fields.
func (r *refEvent) event() *Event {
	e := &Event{Seq: int32(r.Seq), Kind: r.Kind, Node: r.Node, User: r.User, Decision: int32(r.Decision),
		Again: r.Again, Reason: r.Reason, At: r.At}
	for _, m := range []map[string]any{r.Reads, r.Writes} {
		for name, value := range m {
			e.Values = e.Values.With(name, value)
		}
	}
	return e
}

// FuzzLogJSON is the snapshot side's first fuzz target. For arbitrary
// bytes, Log.UnmarshalJSON refuses exactly what the reference decoder
// refuses plus the logs that are not wellFormed, and a log it accepts
// re-encodes to json.Marshal of the reference's decoding, decodes back to
// itself, and equals the log appended event by event from the same
// fields. For a live event built from the remaining arguments — int64,
// float (NaN and infinities included), string and bool values under an
// arbitrary key — the encoding is json.Marshal of the reference event, or
// both refuse.
func FuzzLogJSON(f *testing.F) {
	// testdata/fuzz/FuzzLogJSON holds each event kind, empty, single and
	// many values, every JSON value type, duplicate and unsorted keys, and
	// each rule the decoder adds.
	f.Add([]byte(`[{"seq":1,"kind":0,"node":"a","user":"u","decision":-1,"reads":{"p":"v"},"at":7}]`),
		uint8(1), "a", "ann", "", "key", "text", int64(-3), 2.5, true)
	f.Fuzz(func(t *testing.T, raw []byte, kind uint8, node, user, reason, key, s string, i int64, fl float64, b bool) {
		checkDecode(t, raw)

		ref := &refEvent{Seq: 1, Kind: Kind(kind), Node: node, User: user, Decision: int(int32(i)), Again: b, Reason: reason, At: i}
		values := map[string]any{"b": b, "f": fl, "i": i, "s": s, key: s}
		switch ref.Kind {
		case Started:
			ref.Reads = values
		case Completed:
			ref.Writes = values
		}
		live := &Log{}
		live.Append(ref.event())
		got, gotErr := json.Marshal(live)
		want, wantErr := json.Marshal([]*refEvent{ref})
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("live event: Log.MarshalJSON: %v, reference: %v", gotErr, wantErr)
		}
		if wantErr != nil {
			if !math.IsNaN(fl) && !math.IsInf(fl, 0) {
				t.Fatalf("reference refuses a finite event: %v", wantErr)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("live event encodes as\n%s\nreference\n%s", got, want)
		}
		checkDecode(t, got)
	})
}

// checkDecode holds Log.UnmarshalJSON against the reference on one input.
func checkDecode(t *testing.T, raw []byte) {
	t.Helper()
	var ref []*refEvent
	refErr := json.Unmarshal(raw, &ref)
	var got Log
	if err := json.Unmarshal(raw, &got); err != nil {
		if refErr == nil && wellFormed(ref) {
			t.Fatalf("refused a log the reference decodes and no added rule excludes: %v\n%s", err, raw)
		}
		return
	}
	if refErr != nil || !wellFormed(ref) {
		t.Fatalf("accepted a log the reference refuses (%v) or that is not well formed\n%s", refErr, raw)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(&got)
	if err != nil {
		t.Fatalf("decoded log does not encode: %v\n%s", err, raw)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("decoded log re-encodes as\n%s\nreference\n%s", enc, want)
	}
	var back Log
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatalf("re-encoding does not decode: %v\n%s", err, enc)
	}
	if !reflect.DeepEqual(back.Events().Decode(nil), got.Events().Decode(nil)) {
		t.Fatalf("re-encoding decodes to a different log\n%s", enc)
	}
	if ref != nil {
		built := &Log{}
		for _, r := range ref {
			built.Append(r.event())
		}
		if !sameEvents(built.Events().Decode(nil), got.Events().Decode(nil)) {
			t.Fatalf("decoded log differs from the log built from its fields\n%s", raw)
		}
	}
}

// sameEvents compares two logs by their exported fields; an empty value
// set is nil after a decode and may be empty after Set, and a NaN is the
// NaN it was stored as.
func sameEvents(a, b []*Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := *a[i], *b[i]
		if len(x.Values) != len(y.Values) {
			return false
		}
		x.Values, y.Values = slices.Clone(x.Values), slices.Clone(y.Values) // x and y are copies, their bindings are not
		for j := range x.Values {
			xf, xIsFloat := x.Values[j].Value.(float64)
			yf, yIsFloat := y.Values[j].Value.(float64)
			if xIsFloat && yIsFloat && math.Float64bits(xf) == math.Float64bits(yf) {
				x.Values[j].Value, y.Values[j].Value = nil, nil
			}
		}
		if len(x.Values) == 0 {
			x.Values, y.Values = nil, nil
		}
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// packedProgram turns fuzz input into an event sequence: four bytes an
// event, every field drawn from a small menu that holds the cases a
// packed record has to get right beside the fuzzer's own strings and
// numbers. It returns the events as they are handed to Append.
//
//	byte 0  the kind, raw: the four, and 4…255 unknown
//	byte 1  node (3 bits), user (3 bits), reason (2 bits): empty, the
//	        argument, a short constant, 600 bytes, invalid UTF-8
//	byte 2  At (3 bits): 0, at, -at, one before the last stamp, and the two
//	        neighbours at each end of int64; Decision (3 bits): -1, 0,
//	        MaxInt32, dec, MinInt32, 1, -2; Again (1 bit)
//	byte 3  bindings (2 bits): 0…3, their types rotating through int64,
//	        float64, string, bool and nil from an offset (3 bits)
func packedProgram(prog []byte, node, user, reason, key, s string, at int64, dec int32, fl float64) []Event {
	const invalid = "\xff\xfe\xfd"
	long := strings.Repeat("0123456789ab", 50)
	nodes := [8]string{"", node, "a", "get_order", long, invalid, user, "and-split_1"}
	users := [8]string{"", user, "ann", "bob", long, invalid, node, "ann"}
	reasons := [4]string{"", reason, long, invalid}
	decisions := [8]int32{-1, 0, math.MaxInt32, dec, math.MinInt32, 1, -2, -1}
	values := [5]any{at, fl, s, at%2 == 0, nil}
	var events []Event
	last := int64(0)
	for ; len(prog) >= 4 && len(events) < 64; prog = prog[4:] {
		e := Event{
			Kind:     Kind(prog[0]),
			Node:     nodes[prog[1]&7],
			User:     users[prog[1]>>3&7],
			Reason:   reasons[prog[1]>>6],
			Decision: decisions[prog[2]>>3&7],
			Again:    prog[2]>>6&1 == 1,
		}
		e.At = [8]int64{0, at, -at, last - 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}[prog[2]&7]
		if e.At != 0 {
			last = e.At
		}
		for j := 0; j < int(prog[3]&3); j++ {
			e.Values = e.Values.With(key+strconv.Itoa(j), values[(int(prog[3]>>2&7)+j)%len(values)])
		}
		events = append(events, e)
	}
	return events
}

// FuzzPackedLog holds the packed log to the struct it replaced. An
// arbitrary event sequence (packedProgram) appended to a log decodes field
// for field to what was appended, with sequence numbers 1…n; marshals to
// json.Marshal of the reference events, or both refuse; clones to a log
// that decodes and marshals the same and that an append on either side
// does not disturb; and moves onto a second table (Log.In) unchanged. A
// log never appended to marshals null and a decoded [] marshals [], as
// they did while the log was a slice.
func FuzzPackedLog(f *testing.F) {
	// testdata/fuzz/FuzzPackedLog holds one entry per menu item above.
	f.Add([]byte{0, 0x09, 0x01, 0x01, 1, 0x09, 0x19, 0x05}, "n", "u", "r", "k", "text", int64(1_790_000_000_000_000_000), int32(7), 2.5)
	f.Fuzz(func(t *testing.T, prog []byte, node, user, reason, key, s string, at int64, dec int32, fl float64) {
		events := packedProgram(prog, node, user, reason, key, s, at, dec, fl)
		l := &Log{}
		var ref []*refEvent
		for i := range events {
			e := events[i] // Append sets the copy's Seq, as it does the engine's stack event
			if got := l.Append(&e); got != &e || e.Seq != int32(i+1) {
				t.Fatalf("Append returned %p with Seq %d, want its argument %p with Seq %d", got, e.Seq, &e, i+1)
			}
			events[i].Seq = e.Seq
			r := &refEvent{Seq: i + 1, Kind: e.Kind, Node: e.Node, User: e.User, Decision: int(e.Decision), Again: e.Again, Reason: e.Reason, At: e.At}
			held := make(map[string]any, len(e.Values))
			for _, b := range e.Values {
				held[b.Name] = b.Value
			}
			switch e.Kind {
			case Started:
				r.Reads = held
			case Completed:
				r.Writes = held
			}
			ref = append(ref, r)
		}
		want := make([]*Event, len(events))
		for i := range events {
			want[i] = &events[i]
		}
		if l.Len() != len(events) {
			t.Fatalf("Len %d after %d appends", l.Len(), len(events))
		}
		if got := l.Events().Decode(nil); !sameEvents(got, want) {
			t.Fatalf("decoded\n%v\nappended\n%v", got, want)
		}

		enc, err := json.Marshal(l)
		wantEnc, wantErr := json.Marshal(ref)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("Log.MarshalJSON: %v, reference: %v", err, wantErr)
		}
		if err == nil {
			if !bytes.Equal(enc, wantEnc) {
				t.Fatalf("encodes as\n%s\nreference\n%s", enc, wantEnc)
			}
			checkDecode(t, enc)
		}

		// A clone is equal, and neither side sees the other's next event.
		c := l.Clone()
		if got := c.Events().Decode(nil); !sameEvents(got, want) {
			t.Fatalf("clone decodes to\n%v\nwant\n%v", got, want)
		}
		extra := Event{Kind: Completed, Node: "only-here", User: user, At: at, Decision: -1}
		extra.Values = extra.Values.With(key, s)
		c.Append(&extra)
		if got := l.Events().Decode(nil); !sameEvents(got, want) {
			t.Fatalf("an append to the clone changed the log:\n%v\nwant\n%v", got, want)
		}
		other := Event{Kind: Started, Node: "nor-here", Decision: -1}
		other.Values = other.Values.With(key, fl)
		l.Append(&other)
		if got := c.Events().Decode(nil); !sameEvents(got[:len(want)], want) || len(got) != len(want)+1 ||
			got[len(want)].Node != "only-here" || !reflect.DeepEqual(got[len(want)].Values, extra.Values) {
			t.Fatalf("an append to the log changed its clone:\n%v", got)
		}

		// Another table, the same log (and the event appended above with it).
		moved := l.In(NewSymbols())
		if moved == l || !sameEvents(moved.Events().Decode(nil), l.Events().Decode(nil)) {
			t.Fatalf("on a second table the log decodes to\n%v\nwant\n%v", moved.Events().Decode(nil), l.Events().Decode(nil))
		}
		if l.In(l.syms) != l {
			t.Fatal("In copies a log that is on the table already")
		}

		if len(events) == 0 {
			for _, empty := range []string{"null", "[]"} {
				var d Log
				if err := json.Unmarshal([]byte(empty), &d); err != nil {
					t.Fatal(err)
				}
				if enc, err := json.Marshal(&d); err != nil || string(enc) != empty {
					t.Fatalf("a log decoded from %s marshals %s (%v)", empty, enc, err)
				}
			}
			if string(enc) != "null" {
				t.Fatalf("a log never appended to marshals %s, want null", enc)
			}
		}
	})
}
