package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"adept2"
	"adept2/internal/sim"
)

// namedSystem returns an in-memory system holding the names a decoder
// resolves: the online-order type, instances inst-000001 to inst-000020,
// each run through its lifecycle, and with them the node IDs and user
// names of that lifecycle in the engine's symbol table.
func namedSystem(tb testing.TB) *adept2.System {
	tb.Helper()
	ctx := context.Background()
	sys := adept2.New(adept2.WithOrg(sim.Org()))
	tb.Cleanup(func() { sys.Close() })
	submit := func(cmd adept2.Command) any {
		res, err := sys.Submit(ctx, cmd)
		if err != nil {
			tb.Fatal(err)
		}
		return res
	}
	submit(&adept2.Deploy{Schema: sim.OnlineOrder()})
	lifecycle := []struct{ node, user string }{
		{"get_order", "ann"}, {"collect_data", "ann"}, {"compose_order", "bob"},
		{"confirm_order", "ann"}, {"pack_goods", "bob"}, {"deliver_goods", "bob"},
	}
	for i := 0; i < 20; i++ {
		id := submit(&adept2.CreateInstance{TypeName: "online_order"}).(*adept2.Instance).ID()
		for _, step := range lifecycle {
			var out map[string]any
			if step.node == "get_order" {
				out = map[string]any{"out": "order-" + id}
			}
			submit(&adept2.StartActivity{Instance: id, Node: step.node, User: step.user})
			submit(&adept2.CompleteActivity{Instance: id, Node: step.node, User: step.user, Outputs: out})
		}
	}
	return sys
}

// FuzzCommandLine guards the command stream's decoder, the bytes a peer
// controls. The input is a stream's opening lines and a known-good line
// follows them, all read by one stream's reusing decoder: every line
// either fails with ErrInvalid or decodes to a command whose EncodeCommand
// envelope decodes to an equal command, and whatever came first, the good
// line is still read whole and last.
func FuzzCommandLine(f *testing.F) {
	const good = `{"op":"suspend","args":{"instance":"inst-000001"},"mode":"async"}`
	f.Add([]byte(good))
	sys := namedSystem(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var last string
		dec := sys.WireDecoder(true)
		lines := commandLines(io.MultiReader(bytes.NewReader(data), strings.NewReader("\n"+good+"\n")))
		for lines.Scan() {
			last = string(lines.Bytes())
			cmd, _, _, err := decodeCommandLine(dec, lines.Bytes())
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
// the envelope by Unmarshal, then its command by referenceCommand.
func decodeReference(line []byte) (adept2.Command, string, string, error) {
	var req commandRequest
	if err := json.Unmarshal(line, &req); err != nil {
		return nil, "", "", decodeErr("command envelope", err)
	}
	if req.Mode != "" && req.Mode != "sync" && req.Mode != "async" {
		return nil, "", "", decodeErr("command envelope", errors.New("mode"))
	}
	cmd, err := referenceCommand(req.Op, req.Args)
	return cmd, req.Op, req.Mode, err
}

// referenceCommand decodes the args of a flat command by Unmarshal into
// its exported struct, which is what the registry's reference row does
// (an op without a flat form has no other decoder, so the registry is its
// reference).
func referenceCommand(op string, args json.RawMessage) (adept2.Command, error) {
	var cmd adept2.Command
	var suspend suspendWire
	into := any(&suspend)
	switch op {
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
		return adept2.DecodeWireCommand(op, args)
	}
	if cmd != nil {
		into = cmd
	}
	if err := json.Unmarshal(args, into); err != nil {
		return nil, &adept2.Error{Code: adept2.CodeInvalid, Op: op, Err: err}
	}
	if cmd == nil {
		cmd = &adept2.Suspend{Instance: suspend.Instance}
		if suspend.Resume {
			cmd = &adept2.Resume{Instance: suspend.Instance}
		}
	}
	return cmd, nil
}

// FuzzDecodeAgainstJSON holds the one-pass line decoder to encoding/json,
// and the args appender to encoding/json too: on every input the two
// decoders either both fail with ErrInvalid, or return equal commands, op
// and mode; and then the args the decoded command appends are, byte for
// byte, what json.Marshal writes for its wire form (or both refuse), and
// decode back to the same command. The line decoder resolves names
// against a System that holds some, as the server's does. The corpus is the inputs on which a
// hand-written reader or writer and the reference are most likely to part:
// repeated, case-folded and escaped keys, null members, integers at the
// ends of int64, numbers that are not integers, strings that are not
// ASCII, HTML characters and line separators the encoder escapes, and
// outputs of several keys it sorts.
func FuzzDecodeAgainstJSON(f *testing.F) {
	f.Add([]byte(`{"op":"suspend","args":{"instance":"inst-000001"},"mode":"async"}`))
	dec := namedSystem(f).WireDecoder(false)
	f.Fuzz(func(t *testing.T, line []byte) {
		cmd, op, mode, err := decodeCommandLine(dec, line)
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

// FuzzStreamDecoderReuse holds a stream's reusing decoder to encoding/json
// from one line to the next: one decoder, bound to a System that holds
// instances and symbols, reads line a and then line b, and b decodes as
// the reference decodes it, alone — no member of a (a user, a time,
// outputs, a reason) survives into b's command. b's bytes are then
// overwritten, and its command must not change: nothing decoded aliases
// the line. The seeds are every ordered pair of lines that set different
// members of one form, and of different forms.
func FuzzStreamDecoderReuse(f *testing.F) {
	lines := []string{
		`{"op":"create","args":{"type":"online_order","version":1,"id":"inst-900001"}}`,
		`{"op":"create","args":{"type":"online_order"}}`,
		`{"op":"create","args":{"type":"no_such_type"},"mode":"async"}`,
		`{"op":"start","args":{"instance":"inst-000001","node":"get_order","user":"ann","at":1700000000000000000}}`,
		`{"op":"start","args":{"instance":"inst-000002","node":"collect_data"}}`,
		`{"op":"complete","args":{"instance":"inst-000001","node":"get_order","user":"ann","outputs":{"out":"order-1","x":"y"},"at":5}}`,
		`{"op":"complete","args":{"instance":"inst-000003","node":"get_order","outputs":{}}}`,
		`{"op":"complete","args":{"instance":"inst-000003","node":"pack_goods","decision":1}}`,
		`{"op":"complete","args":{"instance":"ghost","node":"ghost_node","user":"ghost_user"}}`,
		`{"op":"fail","args":{"instance":"inst-000004","node":"pack_goods","user":"bob","reason":"r","retryAt":9,"pending":true}}`,
		`{"op":"fail","args":{"instance":"inst-000004","node":"pack_goods"}}`,
		`{"op":"timeout","args":{"instance":"inst-000005","node":"deliver_goods","at":3}}`,
		`{"op":"retry","args":{"instance":"inst-000005","node":"deliver_goods"}}`,
		`{"op":"suspend","args":{"instance":"inst-000006","resume":true}}`,
		`{"op":"suspend","args":{"instance":"inst-000006"}}`,
		`{"op":"undo","args":{"instance":"inst-000007","all":true}}`,
		`{"op":"undo","args":{"instance":"inst-000007"}}`,
		`{"op":"start","args":{"instance":"inst-000001","node":"get_order","user":1}}`,
	}
	for _, a := range lines {
		for _, b := range lines {
			f.Add([]byte(a), []byte(b))
		}
	}
	sys := namedSystem(f)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		dec := sys.WireDecoder(true)
		decodeCommandLine(dec, a)
		line := bytes.Clone(b)
		cmd, op, mode, err := decodeCommandLine(dec, line)
		ref, refOp, refMode, refErr := decodeReference(b)
		if err != nil || refErr != nil {
			if !errors.Is(err, adept2.ErrInvalid) || !errors.Is(refErr, adept2.ErrInvalid) {
				t.Fatalf("line %q after %q: decoder says %v, encoding/json says %v; want ErrInvalid from both or neither", b, a, err, refErr)
			}
			return
		}
		if !reflect.DeepEqual(cmd, ref) || op != refOp || mode != refMode {
			t.Fatalf("line %q after %q: decoded %#v op %q mode %q, encoding/json decodes %#v op %q mode %q", b, a, cmd, op, mode, ref, refOp, refMode)
		}
		for i := range line {
			line[i] = '#'
		}
		if !reflect.DeepEqual(cmd, ref) {
			t.Fatalf("line %q after %q: overwriting the line changed its command to %#v", b, a, cmd)
		}
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

// FuzzBatchAgainstJSON holds the one-pass batch decoder to encoding/json:
// on every body the two either both fail with ErrInvalid or return equal
// commands. The corpus is the bodies the one pass must hand over whole: a
// case-folded or repeated "commands", data after the object, a null
// element, an element with a mode, and outputs that are not all plain
// strings — a number, a repeated or escaped key, nine keys — or none.
func FuzzBatchAgainstJSON(f *testing.F) {
	const (
		create   = `{"op":"create","args":{"type":"online_order"}}`
		start    = `{"op":"start","args":{"instance":"inst-000001","node":"get_order","user":"ann"}}`
		complete = `{"op":"complete","args":{"instance":"inst-000001","node":"get_order","user":"ann","outputs":%s}}`
	)
	for _, seed := range []string{
		`{"commands":[]}`,
		`{"commands":[` + create + `,` + start + `,` + fmt.Sprintf(complete, `{"out":"order-0"}`) + `]}`,
		`{"Commands":[` + create + `]}`,
		`{"commands":[` + create + `],"commands":[` + start + `]}`,
		`{"commands":[` + create + `]}{"commands":[` + start + `]}`,
		`{"commands":[` + create + `]} garbage`,
		`{"commands":[null]}`,
		`{"commands":[` + create + `,1]}`,
		`{"commands":[{"op":"create","args":{"type":"online_order"},"mode":"async"}]}`,
		`{"commands":[` + fmt.Sprintf(complete, `{"out":1}`) + `]}`,
		`{"commands":[` + fmt.Sprintf(complete, `{"out":"a","out":"b"}`) + `]}`,
		`{"commands":[` + fmt.Sprintf(complete, `{"\u006fut":"a"}`) + `]}`,
		`{"commands":[` + fmt.Sprintf(complete, `{"1":"","2":"","3":"","4":"","5":"","6":"","7":"","8":"","9":""}`) + `]}`,
		`{"commands":[` + fmt.Sprintf(complete, `{}`) + `]}`,
		`{"commands":[{"op":"no_such_op","args":{}}]}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	dec := namedSystem(f).WireDecoder(false)
	f.Fuzz(func(t *testing.T, body []byte) {
		cmds, err := decodeBatch(dec, body)
		ref, refErr := decodeBatchReference(body)
		if err != nil || refErr != nil {
			if !errors.Is(err, adept2.ErrInvalid) || !errors.Is(refErr, adept2.ErrInvalid) {
				t.Fatalf("body %q: decoder says %v, encoding/json says %v; want ErrInvalid from both or neither", body, err, refErr)
			}
			return
		}
		if !reflect.DeepEqual(cmds, ref) {
			t.Fatalf("body %q: decoded %#v, encoding/json decodes %#v", body, cmds, ref)
		}
	})
}

// decodeBatchReference is decodeBatch by encoding/json and nothing else.
func decodeBatchReference(body []byte) ([]adept2.Command, error) {
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, decodeErr("batch envelope", err)
	}
	cmds := make([]adept2.Command, len(req.Commands))
	for i, env := range req.Commands {
		cmd, err := referenceCommand(env.Op, env.Args)
		if err != nil {
			return nil, err
		}
		cmds[i] = cmd
	}
	return cmds, nil
}

// FuzzRepliesAgainstJSON holds the reply appender and the client's reply
// readers to encoding/json. From the fuzzed fields it builds a run of
// result summaries — none, an instance, a report, an empty one — and a
// batch reply around them, with an error envelope or without: each reply
// appended, a SubmitResult per result and the BatchResponse, is byte for
// byte what json.Encoder writes, and reads back as json.Unmarshal reads
// it. raw is read as a reply line and as a batch reply: the readers hold
// what json.Unmarshal makes of it, or fail as it does.
func FuzzRepliesAgainstJSON(f *testing.F) {
	f.Add("inst-000001", "online_order", 1, 0, uint8(0b0110_1101), []byte(`{"results":[null,{"instance":{"id":"i","type":"t","version":2,"done":true}}]}`))
	f.Add("i<&>\"\u2028é", "t\xff", -1, 3, uint8(0xff), []byte(`{"op":"create","shard":0,"seq":1,"durable":true,"result":{"instance":{"id":"i","type":"t","version":1,"migrations":2,"migrations":3}}}`))
	f.Add("", "", 0, 0, uint8(0), []byte(`{"results":[{"report":{"type":"t","from":1,"to":2,"total":0,"elapsedNanos":5}}],"error":{"code":"invalid","message":"m"}}`))
	f.Add("a", "b", 9, -9, uint8(0b1001_0010), []byte(`{"op":"create","shard":0,"seq":1,"durable":true,"result":{"instance":{"ID":"i","type":"t","version":1}}}`))
	f.Fuzz(func(t *testing.T, id, typ string, version, migrations int, pick uint8, raw []byte) {
		var results []*ResultSummary
		if pick&1 != 0 {
			results = []*ResultSummary{}
		}
		for i := 0; i < int(pick>>5); i++ {
			in := &InstanceSummary{ID: id, Type: typ, Version: version + i, Done: pick&2 != 0, Suspended: pick&4 != 0,
				Biased: pick&8 != 0, Migrations: migrations}
			switch (i + int(pick>>1)) % 4 {
			case 0:
				results = append(results, nil)
			case 1:
				results = append(results, &ResultSummary{Instance: in})
			case 2:
				results = append(results, &ResultSummary{Report: &ReportSummary{Type: typ, From: version, To: migrations,
					Outcomes: map[string]int{id: i, typ: version}, ElapsedNanos: int64(migrations)}})
			default:
				results = append(results, &ResultSummary{})
			}
		}
		resp := &BatchResponse{Results: results}
		if pick&16 != 0 {
			resp.Error = &WireError{Code: typ, Op: id, Message: id + typ, Applied: pick&2 != 0}
		}
		batch := encoded(t, resp)
		if got := appendBatchResponse(nil, resp); !bytes.Equal(got, batch) {
			t.Fatalf("%+v appends as\n%s\njson.Encoder writes\n%s", resp, got, batch)
		}
		checkBatchRead(t, batch)
		for _, res := range results {
			reply := &SubmitResult{Op: typ, Shard: version, Seq: migrations, Durable: pick&4 != 0, Result: res}
			line := encoded(t, reply)
			if got := appendSubmitResult(nil, reply); !bytes.Equal(got, line) {
				t.Fatalf("%+v appends as\n%s\njson.Encoder writes\n%s", reply, got, line)
			}
			checkLineRead(t, line, typ)
		}
		checkBatchRead(t, raw)
		checkLineRead(t, raw, typ)
	})
}

// encoded is what json.Encoder writes for v.
func encoded(t *testing.T, v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkBatchRead holds readBatchResponse to json.Unmarshal on body.
func checkBatchRead(t *testing.T, body []byte) {
	t.Helper()
	var got, want BatchResponse
	err, wantErr := readBatchResponse(body, &got), json.Unmarshal(body, &want)
	if (err == nil) != (wantErr == nil) || err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("batch reply %q:\nread %s, %v\nencoding/json %s, %v", body, dump(got), err, dump(want), wantErr)
	}
}

// checkLineRead holds a call's reply read to json.Unmarshal on line.
func checkLineRead(t *testing.T, line []byte, op string) {
	t.Helper()
	var want replyLine
	wantErr := json.Unmarshal(line, &want)
	cl := &call{op: op}
	if err := cl.read(line); (err == nil) != (wantErr == nil) || err == nil && !reflect.DeepEqual(cl.reply, want) {
		t.Fatalf("reply line %q:\nread %s, %v\nencoding/json %s, %v", line, dump(cl.reply), err, dump(want), wantErr)
	}
}

// dump shows a reply with what its pointers point to.
func dump(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}
