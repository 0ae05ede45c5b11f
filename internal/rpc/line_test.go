package rpc

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"adept2"
)

// TestLineIsTheEnvelopes: the line the client builds in place is, byte for
// byte, what encoding/json makes of the commandRequest — escapes the
// encoder adds, HTML's among them, included.
func TestLineIsTheEnvelopes(t *testing.T) {
	decision, again := 2, true
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, cmd := range []adept2.Command{
		&adept2.CreateInstance{TypeName: "online_order"},
		&adept2.StartActivity{Instance: "inst-000001", Node: "get_order", User: "ann"},
		&adept2.CompleteActivity{Instance: "i<&>\"\\\u2028é\xff", Node: "n", Outputs: map[string]any{"b": 1.5, "a": []any{"<", nil}}, Decision: &decision, Again: &again},
		&adept2.Suspend{Instance: "inst-000001"},
		&adept2.Resume{Instance: "inst-000001"},
		&adept2.Undo{Instance: "inst-000001", All: true},
	} {
		for _, mode := range []string{"sync", "async"} {
			op, args, err := adept2.EncodeCommand(cmd)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(commandRequest{Envelope: Envelope{Op: op, Args: args}, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			op, wire, err := adept2.WireArgs(cmd)
			if err != nil {
				t.Fatal(err)
			}
			if err := encodeLine(&buf, enc, op, wire, mode); err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != string(want)+"\n" {
				t.Errorf("%T in mode %s:\n line %s encoding/json %s", cmd, mode, got, want)
			}
		}
	}
	if err := encodeLine(&buf, enc, "complete", &adept2.CompleteActivity{Outputs: map[string]any{"f": func() {}}}, "sync"); err == nil {
		t.Error("a value that does not encode made a line")
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
