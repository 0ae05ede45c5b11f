package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
// follows them, all read as one stream reads them — a command by the
// stream's reusing decoder, a frame by the shared one: every line either
// fails with ErrInvalid or decodes to commands whose EncodeCommand
// envelopes decode to equal commands, and whatever came first, the good
// line is still read whole and last.
func FuzzCommandLine(f *testing.F) {
	const good = `{"op":"suspend","args":{"instance":"inst-000001"},"mode":"async"}`
	f.Add([]byte(good))
	sys := namedSystem(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var last string
		dec, frames := sys.WireDecoder(true), sys.WireDecoder(false)
		lines := commandLines(io.MultiReader(bytes.NewReader(data), strings.NewReader("\n"+good+"\n")))
		for lines.Scan() {
			last = string(lines.Bytes())
			req, err := decodeCommandLine(dec, frames, lines.Bytes())
			if err != nil {
				if !errors.Is(err, adept2.ErrInvalid) {
					t.Fatalf("line %q: rejected with %v, want ErrInvalid", last, err)
				}
				continue
			}
			for _, cmd := range req.commands() {
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
		}
		if last != good {
			t.Fatalf("after %q the stream's last line read %q, want %q", data, last, good)
		}
	})
}

// commands is what a decoded line runs: its frame's commands, or its one
// command.
func (r *request) commands() []adept2.Command {
	if r.batch != nil {
		return r.batch
	}
	return []adept2.Command{r.cmd}
}

// decodeReference is decodeCommandLine by encoding/json and nothing else:
// the line by Unmarshal, then each command by referenceCommand. A frame
// carries no op, args or mode, and its commands no mode or frame.
func decodeReference(line []byte) (request, error) {
	var req commandRequest
	if err := json.Unmarshal(line, &req); err != nil {
		return request{}, decodeErr("command envelope", err)
	}
	if req.Batch == nil {
		if req.Mode != "" && req.Mode != "sync" && req.Mode != "async" {
			return request{}, decodeErr("command envelope", errors.New("mode"))
		}
		cmd, err := referenceCommand(req.Op, req.Args)
		return request{cmd: cmd, op: req.Op, mode: req.Mode}, err
	}
	if req.Op != "" || req.Args != nil || req.Mode != "" {
		return request{}, decodeErr("batch frame", errors.New("op, args or mode"))
	}
	batch := make([]adept2.Command, len(req.Batch))
	for i, env := range req.Batch {
		if env.Mode != "" || env.Batch != nil {
			return request{}, decodeErr("batch command", errors.New("mode or batch"))
		}
		var err error
		if batch[i], err = referenceCommand(env.Op, env.Args); err != nil {
			return request{}, err
		}
	}
	return request{batch: batch}, nil
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
// and mode, or equal frames; and then the args each decoded command
// appends are, byte for byte, what json.Marshal writes for its wire form
// (or both refuse), and decode back to the same command. The line decoder
// resolves names against a System that holds some, as the server's does.
// The corpus is the inputs on which a hand-written reader or writer and
// the reference are most likely to part: repeated, case-folded and
// escaped keys, null members, integers at the ends of int64, numbers that
// are not integers, strings that are not ASCII, HTML characters and line
// separators the encoder escapes, and outputs of several keys it sorts;
// and the frames the one pass must hand over whole (frame_*): a
// case-folded or repeated "batch", data after the frame, a frame that
// also carries an op, a null element, an element with a mode, and outputs
// that are not all plain strings.
func FuzzDecodeAgainstJSON(f *testing.F) {
	f.Add([]byte(`{"op":"suspend","args":{"instance":"inst-000001"},"mode":"async"}`))
	dec := namedSystem(f).WireDecoder(false)
	f.Fuzz(func(t *testing.T, line []byte) {
		checkAgainstJSON(t, dec, line)
	})
}

// FuzzBatchAgainstJSON holds the frame decoder to encoding/json as
// FuzzDecodeAgainstJSON does, on the frame {"batch":[...]} around the
// input, so that every mutation lands among a frame's elements, where the
// one pass reads each element's envelope in place. The corpus is element
// lists: none, a whole lifecycle, an element without op, one of the wrong
// type, a frame nested in an element, and outputs that are not plain
// strings.
func FuzzBatchAgainstJSON(f *testing.F) {
	dec := namedSystem(f).WireDecoder(false)
	f.Fuzz(func(t *testing.T, elements []byte) {
		line := append(append([]byte(`{"batch":[`), elements...), "]}"...)
		checkAgainstJSON(t, dec, line)
	})
}

// checkAgainstJSON decodes line by dec and by decodeReference: both fail
// with ErrInvalid, or both return the same command, op and mode, or the
// same frame; and then every decoded command's args pass checkAppend.
func checkAgainstJSON(t *testing.T, dec *adept2.WireDecoder, line []byte) {
	t.Helper()
	req, err := decodeCommandLine(dec, dec, line)
	ref, refErr := decodeReference(line)
	if err != nil || refErr != nil {
		if !errors.Is(err, adept2.ErrInvalid) || !errors.Is(refErr, adept2.ErrInvalid) {
			t.Fatalf("line %q: decoder says %v, encoding/json says %v; want ErrInvalid from both or neither", line, err, refErr)
		}
		return
	}
	if !reflect.DeepEqual(req, ref) {
		t.Fatalf("line %q: decoded %#v, encoding/json decodes %#v", line, req, ref)
	}
	for _, cmd := range req.commands() {
		checkAppend(t, line, cmd, req.op)
	}
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
		dec, frames := sys.WireDecoder(true), sys.WireDecoder(false)
		decodeCommandLine(dec, frames, a)
		line := bytes.Clone(b)
		req, err := decodeCommandLine(dec, frames, line)
		ref, refErr := decodeReference(b)
		if err != nil || refErr != nil {
			if !errors.Is(err, adept2.ErrInvalid) || !errors.Is(refErr, adept2.ErrInvalid) {
				t.Fatalf("line %q after %q: decoder says %v, encoding/json says %v; want ErrInvalid from both or neither", b, a, err, refErr)
			}
			return
		}
		if !reflect.DeepEqual(req, ref) {
			t.Fatalf("line %q after %q: decoded %#v, encoding/json decodes %#v", b, a, req, ref)
		}
		for i := range line {
			line[i] = '#'
		}
		if !reflect.DeepEqual(req, ref) {
			t.Fatalf("line %q after %q: overwriting the line changed its decode to %#v", b, a, req)
		}
	})
}

// checkAppend holds the args a decoded command appends to encoding/json:
// json.Marshal of the command's wire form, byte for byte, or a refusal
// from both, and the registry's decoder reads them back to the command
// under op, the one the line named ("" for a frame's command, which the
// line names no op for). A change-op carrier has no wire form outside the
// registry: its args are held to the round trip alone.
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
	if op != "" && appendOp != op {
		t.Fatalf("line %q: decoded op %q appends as %q", line, op, appendOp)
	}
	again, err := adept2.DecodeWireCommand(appendOp, args)
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
