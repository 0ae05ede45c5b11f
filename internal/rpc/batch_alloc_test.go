//go:build !race

// Allocation counts are not reproducible under the race detector.

package rpc

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"adept2"
)

// TestDecodeBatchAllocations: a plain frame — the lifecycle commands a
// bulk load sends, 64 of them — read on a command stream costs what its
// commands cost decoded one by one by the shared decoder, a new struct
// each and the strings its System does not hold, plus the one slice that
// holds them; cutting the line and its envelopes costs nothing.
func TestDecodeBatchAllocations(t *testing.T) {
	sys := namedSystem(t)
	stream, dec := sys.WireDecoder(true), sys.WireDecoder(false)
	var cmds []adept2.Command
	for i := 0; len(cmds) < 64; i++ {
		id := fmt.Sprintf("inst-%06d", i+1)
		cmds = append(cmds,
			&adept2.CreateInstance{TypeName: "online_order"},
			&adept2.StartActivity{Instance: id, Node: "get_order", User: "ann"},
			&adept2.CompleteActivity{Instance: id, Node: "get_order", User: "ann", Outputs: map[string]any{"out": "order-" + id}},
			&adept2.CompleteActivity{Instance: id, Node: "collect_data", User: "ann"})
	}
	var lb lineBuf
	if err := lb.encodeFrame(cmds); err != nil {
		t.Fatal(err)
	}
	line := lb.line
	var req commandRequest
	if err := json.Unmarshal(line, &req); err != nil {
		t.Fatal(err)
	}
	var each float64
	for _, env := range req.Batch {
		each += testing.AllocsPerRun(10, func() {
			if _, _, err := dec.Decode([]byte(env.Op), env.Args); err != nil {
				t.Fatal(err)
			}
		})
	}
	var decoded request
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		if decoded, err = decodeCommandLine(stream, dec, line); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decoding a frame of %d commands allocates %.0f objects; its commands one by one %.0f", len(cmds), allocs, each)
	if allocs > each+1 {
		t.Errorf("decoding a frame of %d commands allocates %.0f objects, want its commands' %.0f and one slice", len(cmds), allocs, each)
	}
	if !reflect.DeepEqual(decoded.batch, cmds) {
		t.Errorf("the frame decodes to %#v, want %#v", decoded.batch, cmds)
	}
}
