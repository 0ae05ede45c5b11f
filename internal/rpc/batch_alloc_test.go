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

// TestDecodeBatchAllocations: a plain batch body — the lifecycle commands
// a bulk load sends, 64 of them — costs what its commands cost decoded
// one by one by the same decoder, a new struct each and the strings its
// System does not hold, plus the one slice that holds them; cutting the
// body and its envelopes costs nothing.
func TestDecodeBatchAllocations(t *testing.T) {
	dec := namedSystem(t).WireDecoder(false)
	var cmds []adept2.Command
	for i := 0; len(cmds) < 64; i++ {
		id := fmt.Sprintf("inst-%06d", i+1)
		cmds = append(cmds,
			&adept2.CreateInstance{TypeName: "online_order"},
			&adept2.StartActivity{Instance: id, Node: "get_order", User: "ann"},
			&adept2.CompleteActivity{Instance: id, Node: "get_order", User: "ann", Outputs: map[string]any{"out": "order-" + id}},
			&adept2.CompleteActivity{Instance: id, Node: "collect_data", User: "ann"})
	}
	body, err := batchBody(cmds)
	if err != nil {
		t.Fatal(err)
	}
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	var each float64
	for _, env := range req.Commands {
		each += testing.AllocsPerRun(10, func() {
			if _, _, err := dec.Decode([]byte(env.Op), env.Args); err != nil {
				t.Fatal(err)
			}
		})
	}
	var decoded []adept2.Command
	allocs := testing.AllocsPerRun(10, func() {
		if decoded, err = decodeBatch(dec, body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decoding a batch of %d commands allocates %.0f objects; its commands one by one %.0f", len(cmds), allocs, each)
	if allocs > each+1 {
		t.Errorf("decoding a batch of %d commands allocates %.0f objects, want its commands' %.0f and one slice", len(cmds), allocs, each)
	}
	if !reflect.DeepEqual(decoded, cmds) {
		t.Errorf("the batch decodes to %#v, want %#v", decoded, cmds)
	}
}
