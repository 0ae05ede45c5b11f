package mining

import (
	"bytes"
	"testing"
)

// FuzzMiningReport holds the report codec to "error or round-trip": any
// bytes make Decode return an error, or a report whose Encode bytes decode
// and encode again to the same bytes. Encodings are compared, not structs:
// an empty slice and an omitted omitempty member decode differently and
// encode alike. The checked-in corpus has a report `adeptctl mine -format
// json` printed for a seeded 4-shard layout, an unknown field, a member of
// the wrong type, and an empty object.
func FuzzMiningReport(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Decode(data)
		if err != nil {
			return
		}
		want, err := Encode(r)
		if err != nil {
			t.Fatalf("a decoded report does not encode: %v", err)
		}
		back, err := Decode(want)
		if err != nil {
			t.Fatalf("an encoded report does not decode: %v\n%s", err, want)
		}
		got, err := Encode(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Encode + Decode changed the report:\n got %s\nwant %s", got, want)
		}
	})
}
