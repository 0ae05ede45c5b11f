package rpc

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"adept2"
)

// TestLineIsTheEnvelopes: the line the client builds in place is, byte for
// byte, what encoding/json makes of the commandRequest with the command
// as its args — escapes the encoder adds, HTML's among them, included —
// and a frame is what it makes of the frame of their envelopes. A command
// whose strings or outputs no line carries as they stand is refused with
// ErrInvalid, alone or in a frame, and leaves the buffer's last line as
// it was.
func TestLineIsTheEnvelopes(t *testing.T) {
	decision, again := 2, true
	var lb, frames lineBuf
	var batch []adept2.Command
	var envelopes []Envelope
	for _, c := range []struct {
		cmd  adept2.Command
		wire any // what encoding/json is given as the args
	}{
		{&adept2.CreateInstance{TypeName: "online_order"}, nil},
		{&adept2.StartActivity{Instance: "inst-000001", Node: "get_order", User: "ann"}, nil},
		{&adept2.CompleteActivity{Instance: "i<&>\"\\\u2028é", Node: "n", Outputs: map[string]any{"b": 1.5, "a": []any{"<", nil}, "c": "x\u2029<"}, Decision: &decision, Again: &again}, nil},
		{&adept2.CompleteActivity{Instance: "i", Node: "n", Outputs: map[string]any{}}, nil},
		{&adept2.FailActivity{Instance: "i", Node: "n", Reason: "<boom>", RetryAt: -1, Pending: true}, nil},
		{&adept2.Suspend{Instance: "inst-000001"}, map[string]any{"instance": "inst-000001"}},
		{&adept2.Resume{Instance: "inst-000001"}, map[string]any{"instance": "inst-000001", "resume": true}},
		{&adept2.Undo{Instance: "inst-000001", All: true}, nil},
	} {
		wire := c.wire
		if wire == nil {
			wire = c.cmd
		}
		args, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"sync", "async"} {
			op, err := lb.encode(c.cmd, mode)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(commandRequest{Envelope: Envelope{Op: op, Args: args}, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if got := string(lb.line); got != string(want)+"\n" {
				t.Errorf("%T in mode %s:\n line %s encoding/json %s", c.cmd, mode, got, want)
			}
			batch, envelopes = append(batch, c.cmd), append(envelopes, Envelope{Op: op, Args: args})
		}
	}
	for _, n := range []int{0, 1, len(batch)} {
		want, err := json.Marshal(struct {
			Batch []Envelope `json:"batch"`
		}{append([]Envelope{}, envelopes[:n]...)})
		if err != nil {
			t.Fatal(err)
		}
		if err := frames.encodeFrame(batch[:n]); err != nil || string(frames.line) != string(want)+"\n" {
			t.Errorf("frame of %d: line %s, %v; encoding/json %s", n, frames.line, err, want)
		}
	}
	last := string(lb.line)
	for _, cmd := range []adept2.Command{
		&adept2.CompleteActivity{Instance: "i", Node: "n", Outputs: map[string]any{"f": func() {}}},
		&adept2.CompleteActivity{Instance: "i", Node: "n", Outputs: map[string]any{"x": math.NaN()}},
		&adept2.CompleteActivity{Instance: "i", Node: "n", Outputs: map[string]any{"note": "bad\xff"}},
		&adept2.CompleteActivity{Instance: "i", Node: "n", Outputs: map[string]any{"bad\xff": "note"}},
		&adept2.StartActivity{Instance: "i\xff", Node: "n"},
		&adept2.CreateInstance{TypeName: "online_order", ID: "inst-\xff"},
	} {
		if _, err := lb.encode(cmd, "sync"); !errors.Is(err, adept2.ErrInvalid) {
			t.Errorf("%#v made a line: %v, want ErrInvalid", cmd, err)
		}
		if string(lb.line) != last {
			t.Errorf("a refused %T left %q behind", cmd, lb.line)
		}
		if err := frames.encodeFrame(append(batch[:1:1], cmd)); !errors.Is(err, adept2.ErrInvalid) {
			t.Errorf("a frame holding %#v was made: %v, want ErrInvalid", cmd, err)
		}
	}
}

// TestReplyReadIsEncodingJSONs: whatever line answers a command, the call
// holds what json.Unmarshal makes of it — an acknowledgement read in
// place, everything else by the reference — or fails as it does.
func TestReplyReadIsEncodingJSONs(t *testing.T) {
	for _, line := range []string{
		`{"op":"start","shard":3,"seq":1234567,"durable":true}`,
		` { "op" : "start" , "shard" : 0 , "seq" : 0 , "durable" : false } `,
		`{"durable":false,"seq":9,"shard":1,"op":"start"}`,
		`{"op":"start","shard":1,"seq":9}`,
		`{"op":"suspend","shard":1,"seq":9,"durable":true}`,
		`{"op":"st\u0061rt","shard":1,"seq":9,"durable":true}`,
		`{"op":"start","shard":1,"seq":9,"durable":true,"durable":false}`,
		`{"op":"start","shard":1,"seq":9,"durable":true,"result":{"instance":{"id":"inst-000001","type":"online_order","version":1}}}`,
		`{"op":"start","shard":1,"seq":9,"durable":true,"result":{"instance":{"id":"i","type":"t","version":1,"done":true,"suspended":false,"biased":true,"migrations":2}}}`,
		`{"op":"start","shard":1,"seq":9,"durable":true,"result":null}`,
		`{"op":"start","shard":1,"seq":9,"durable":true,"result":{}}`,
		`{"op":"start","shard":1,"seq":9,"durable":true,"result":{"instance":null}}`,
		`{"op":"start","shard":1,"seq":9,"durable":true,"result":{"instance":{"id":"i","type":"t"}}}`,
		`{"op":"start","shard":1,"seq":9,"durable":true,"result":{"instance":{"id":"\u0069","type":"t","version":1}}}`,
		`{"op":"start","shard":1,"seq":9,"durable":true,"result":{"report":{"type":"t","from":1,"to":2,"total":3,"elapsedNanos":4}}}`,
		`{"error":{"code":"not_found","op":"start","instance":"inst-9","message":"no such instance"}}`,
		`{"op":"start","shard":null,"seq":9,"durable":null}`,
		`{"op":"start","shard":1.0,"seq":9,"durable":true}`,
		`{"op":"start","shard":1,"seq":9223372036854775808,"durable":true}`,
		`{"op":"start","shard":"1","seq":9,"durable":true}`,
		`{"op":"start","shard":1,"seq":9,"durable":true} trailing`,
		`{"op":"start"`,
		`[]`,
	} {
		var want replyLine
		wantErr := json.Unmarshal([]byte(line), &want)
		cl := &call{op: "start"}
		err := cl.read([]byte(line))
		if (err == nil) != (wantErr == nil) || err == nil && !reflect.DeepEqual(cl.reply, want) {
			t.Errorf("%s:\n read %+v, %v\n encoding/json %+v, %v", line, cl.reply, err, want, wantErr)
		}
	}
}
