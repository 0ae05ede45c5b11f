package rpc

import (
	"bytes"
	"encoding/json"
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

// decodeReference is decodeCommandLine by encoding/json and nothing else:
// the envelope by Unmarshal, then the args of a flat command by Unmarshal
// into its exported struct, which is what the registry's reference row
// does (an op without a flat form has no other decoder, so the registry
// is its reference).
func decodeReference(line []byte) (adept2.Command, string, string, error) {
	var req commandRequest
	if err := json.Unmarshal(line, &req); err != nil {
		return nil, "", "", decodeErr("command envelope", err)
	}
	if req.Mode != "" && req.Mode != "sync" && req.Mode != "async" {
		return nil, "", "", decodeErr("command envelope", errors.New("mode"))
	}
	var cmd adept2.Command
	var suspend suspendWire
	into := any(&suspend)
	switch req.Op {
	case "create":
		cmd = new(adept2.CreateInstance)
	case "start":
		cmd = new(adept2.StartActivity)
	case "fail":
		cmd = new(adept2.FailActivity)
	case "timeout":
		cmd = new(adept2.TimeoutActivity)
	case "retry":
		cmd = new(adept2.RetryActivity)
	case "complete":
		cmd = new(adept2.CompleteActivity)
	case "undo":
		cmd = new(adept2.Undo)
	case "suspend":
	default:
		cmd, err := adept2.DecodeWireCommand(req.Op, req.Args)
		return cmd, req.Op, req.Mode, err
	}
	if cmd != nil {
		into = cmd
	}
	if err := json.Unmarshal(req.Args, into); err != nil {
		return nil, "", "", &adept2.Error{Code: adept2.CodeInvalid, Op: req.Op, Err: err}
	}
	if cmd == nil {
		cmd = &adept2.Suspend{Instance: suspend.Instance}
		if suspend.Resume {
			cmd = &adept2.Resume{Instance: suspend.Instance}
		}
	}
	return cmd, req.Op, req.Mode, nil
}

// FuzzDecodeAgainstJSON holds the one-pass line decoder to encoding/json,
// and the args appender to encoding/json too: on every input the two
// decoders either both fail with ErrInvalid, or return equal commands, op
// and mode; and then the args the decoded command appends are, byte for
// byte, what json.Marshal writes for its wire form (or both refuse), and
// decode back to the same command. The corpus is the inputs on which a
// hand-written reader or writer and the reference are most likely to part:
// repeated, case-folded and escaped keys, null members, integers at the
// ends of int64, numbers that are not integers, strings that are not
// ASCII, HTML characters and line separators the encoder escapes, and
// outputs of several keys it sorts.
func FuzzDecodeAgainstJSON(f *testing.F) {
	f.Add([]byte(`{"op":"suspend","args":{"instance":"inst-000001"},"mode":"async"}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		cmd, op, mode, err := decodeCommandLine(line)
		ref, refOp, refMode, refErr := decodeReference(line)
		if err != nil || refErr != nil {
			if !errors.Is(err, adept2.ErrInvalid) || !errors.Is(refErr, adept2.ErrInvalid) {
				t.Fatalf("line %q: decoder says %v, encoding/json says %v; want ErrInvalid from both or neither", line, err, refErr)
			}
			return
		}
		if !reflect.DeepEqual(cmd, ref) || op != refOp || mode != refMode {
			t.Fatalf("line %q: decoded %#v op %q mode %q, encoding/json decodes %#v op %q mode %q", line, cmd, op, mode, ref, refOp, refMode)
		}
		checkAppend(t, line, cmd, op)
	})
}

// checkAppend holds the args a decoded command appends to encoding/json:
// json.Marshal of the command's wire form, byte for byte, or a refusal
// from both, and the registry's decoder reads them back to the command. A
// change-op carrier has no wire form outside the registry: its args are
// held to the round trip alone.
func checkAppend(t *testing.T, line []byte, cmd adept2.Command, op string) {
	t.Helper()
	appendOp, args, err := adept2.AppendCommandArgs(nil, cmd)
	var wire any = cmd
	switch c := cmd.(type) {
	case *adept2.Suspend:
		wire = suspendWire{Instance: c.Instance}
	case *adept2.Resume:
		wire = suspendWire{Instance: c.Instance, Resume: true}
	case *adept2.AdHoc, *adept2.Evolve:
		wire = nil
	}
	if wire != nil {
		want, wantErr := json.Marshal(wire)
		if (err == nil) != (wantErr == nil) || err == nil && string(args) != string(want) {
			t.Fatalf("line %q: %#v appends %s, %v; json.Marshal writes %s, %v", line, cmd, args, err, want, wantErr)
		}
	}
	if err != nil {
		if !errors.Is(err, adept2.ErrInvalid) {
			t.Fatalf("line %q: %#v refused with %v, want ErrInvalid", line, cmd, err)
		}
		return
	}
	if appendOp != op {
		t.Fatalf("line %q: decoded op %q appends as %q", line, op, appendOp)
	}
	again, err := adept2.DecodeWireCommand(op, args)
	if err != nil {
		t.Fatalf("line %q: appended args %s do not decode: %v", line, args, err)
	}
	if c, ok := cmd.(*adept2.CompleteActivity); ok && c.Outputs != nil && len(c.Outputs) == 0 {
		c.Outputs = nil // omitempty leaves empty outputs out: they read back absent
	}
	if !reflect.DeepEqual(cmd, again) {
		t.Fatalf("line %q: %#v appends %s, which decodes to %#v", line, cmd, args, again)
	}
}

// suspendWire is the wire form Suspend and Resume share.
type suspendWire struct {
	Instance string `json:"instance"`
	Resume   bool   `json:"resume,omitempty"`
}
