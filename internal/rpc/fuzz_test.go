package rpc

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"adept2"
)

// FuzzCommandLine guards the command stream's decoder, the bytes a peer
// controls. The input is a stream's opening lines and a known-good line
// follows them: every line either fails with ErrInvalid or decodes to a
// command whose EncodeCommand envelope decodes to an equal command, and
// whatever came first, the good line is still read whole and last.
func FuzzCommandLine(f *testing.F) {
	const good = `{"op":"suspend","args":{"instance":"inst-000001"},"mode":"async"}`
	f.Add([]byte(good))
	f.Fuzz(func(t *testing.T, data []byte) {
		var last string
		lines := commandLines(io.MultiReader(bytes.NewReader(data), strings.NewReader("\n"+good+"\n")))
		for lines.Scan() {
			last = string(lines.Bytes())
			cmd, _, _, err := decodeCommandLine(lines.Bytes())
			if err != nil {
				if !errors.Is(err, adept2.ErrInvalid) {
					t.Fatalf("line %q: rejected with %v, want ErrInvalid", last, err)
				}
				continue
			}
			op, args, err := adept2.EncodeCommand(cmd)
			if err != nil {
				t.Fatalf("line %q decoded to %#v, which does not encode: %v", last, cmd, err)
			}
			again, err := adept2.DecodeWireCommand(op, args)
			if err != nil {
				t.Fatalf("line %q: envelope %s %s does not decode: %v", last, op, args, err)
			}
			if !reflect.DeepEqual(cmd, again) {
				t.Fatalf("line %q: decoded %#v, its envelope %s %s decodes to %#v", last, cmd, op, args, again)
			}
		}
		if last != good {
			t.Fatalf("after %q the stream's last line read %q, want %q", data, last, good)
		}
	})
}
