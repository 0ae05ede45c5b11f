package change_test

import (
	"bytes"
	"reflect"
	"testing"

	"adept2/internal/change"
)

// FuzzOpsCodec holds the change-op codec, which faces the network through
// the AdHoc and Evolve commands, to one property: an input either fails to
// decode, or its ops encode, decode back to equal ops, and encode again to
// the same bytes. The checked-in corpus has every op kind.
func FuzzOpsCodec(f *testing.F) {
	for _, seed := range []string{
		`[]`,
		`null`,
		`[{"op":"serial-insert","args":null}]`,
		`[{"op":"delete-activity"}]`,
		`[{"op":"bogus","args":{}}]`,
		`[{"op":"insert-sync-edge","args":{"From":"a","To":"b","from":"c"}}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ops, err := change.UnmarshalOps(b)
		if err != nil {
			return
		}
		enc, err := change.MarshalOps(ops)
		if err != nil {
			t.Fatalf("decoded ops do not encode: %v", err)
		}
		back, err := change.UnmarshalOps(enc)
		if err != nil {
			t.Fatalf("encoded ops do not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(back, ops) {
			t.Fatalf("ops change across a round trip:\n%#v\n%#v", ops, back)
		}
		again, err := change.MarshalOps(back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("a second encoding differs (%v):\n%s\n%s", err, enc, again)
		}
	})
}
