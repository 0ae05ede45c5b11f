package history

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
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
			e.Values.Set(name, value)
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
		live := NewLog()
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
	if !reflect.DeepEqual(back.Events(), got.Events()) {
		t.Fatalf("re-encoding decodes to a different log\n%s", enc)
	}
	if ref != nil {
		built := NewLog()
		for _, r := range ref {
			built.Append(r.event())
		}
		if !sameEvents(built.Events(), got.Events()) {
			t.Fatalf("decoded log differs from the log built from its fields\n%s", raw)
		}
	}
}

// sameEvents compares two logs by their exported fields; an empty value
// set is nil after a decode and may be empty after Set.
func sameEvents(a, b []*Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := *a[i], *b[i]
		if len(x.Values) == 0 && len(y.Values) == 0 {
			x.Values, y.Values = nil, nil
		}
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}
