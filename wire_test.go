package adept2_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"adept2"
	"adept2/internal/sim"
)

// TestCodeHTTPStatus pins the taxonomy-to-HTTP mapping the networked
// command plane answers with: every code must map, and the mapping
// must agree with how clients classify the status on the way back.
func TestCodeHTTPStatus(t *testing.T) {
	cases := []struct {
		code   adept2.Code
		status int
	}{
		{adept2.CodeInternal, http.StatusInternalServerError},
		{adept2.CodeInvalid, http.StatusBadRequest},
		{adept2.CodeNotFound, http.StatusNotFound},
		{adept2.CodeConflict, http.StatusConflict},
		{adept2.CodeDenied, http.StatusForbidden},
		{adept2.CodeSuspended, http.StatusLocked},
		{adept2.CodeCompleted, http.StatusGone},
		{adept2.CodeNotCompliant, http.StatusUnprocessableEntity},
		{adept2.CodeVersionSkew, http.StatusConflict},
		{adept2.CodeWedged, http.StatusServiceUnavailable},
		{adept2.CodeUnrecoverable, http.StatusInternalServerError},
		{adept2.CodeCanceled, http.StatusRequestTimeout},
		{adept2.CodeFailed, http.StatusConflict},
		{adept2.CodeTimeout, http.StatusRequestTimeout},
		{adept2.Code("no_such_code"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := tc.code.HTTPStatus(); got != tc.status {
			t.Errorf("%s.HTTPStatus() = %d, want %d", tc.code, got, tc.status)
		}
		// The inverse classifies the status back into the taxonomy; for
		// statuses shared by several codes it picks the broader class,
		// but it must never leave the 4xx/5xx family of the original.
		back := adept2.CodeForHTTPStatus(tc.status)
		if back.HTTPStatus() != tc.status {
			t.Errorf("CodeForHTTPStatus(%d) = %s, which maps to %d", tc.status, back, back.HTTPStatus())
		}
	}
	if got := adept2.CodeForHTTPStatus(http.StatusTeapot); got != adept2.CodeInternal {
		t.Errorf("unknown status classified as %s, want internal", got)
	}
}

// TestEncodeCommandRoundTrip checks the wire codec is the journal
// codec: every registry command round-trips EncodeCommand →
// DecodeWireCommand into an equivalent typed command, including the
// special cases (Resume journals as op "suspend"; ad-hoc and evolve
// serialize through the change codec).
func TestEncodeCommandRoundTrip(t *testing.T) {
	cmds := []adept2.Command{
		&adept2.CreateInstance{TypeName: "online_order"},
		&adept2.StartActivity{Instance: "inst-1", Node: "get_order", User: "ann"},
		&adept2.CompleteActivity{Instance: "inst-1", Node: "get_order", User: "ann",
			Outputs: map[string]any{"out": "o1"}},
		&adept2.Suspend{Instance: "inst-1"},
		&adept2.Resume{Instance: "inst-1"},
		&adept2.Undo{Instance: "inst-1"},
		&adept2.AdHoc{Instance: "inst-1", Ops: sim.OnlineOrderBiasI2()},
		&adept2.Evolve{TypeName: "online_order", Ops: sim.OnlineOrderTypeChange()},
	}
	for _, cmd := range cmds {
		op, args, err := adept2.EncodeCommand(cmd)
		if err != nil {
			t.Fatalf("%T: encode: %v", cmd, err)
		}
		back, err := adept2.DecodeWireCommand(op, args)
		if err != nil {
			t.Fatalf("%T: decode %s %s: %v", cmd, op, args, err)
		}
		if _, isResume := cmd.(*adept2.Resume); isResume {
			if _, ok := back.(*adept2.Resume); !ok {
				t.Fatalf("Resume decoded as %T", back)
			}
			continue
		}
		if want, got := cmd.CommandName(), back.CommandName(); want != got {
			t.Fatalf("%T round-tripped to op %s, want %s", cmd, got, want)
		}
	}

	// Foreign implementations and unknown ops are rejected as invalid.
	if _, _, err := adept2.EncodeCommand(fakeCommand{}); err == nil {
		t.Fatal("foreign command encoded")
	}
	if _, err := adept2.DecodeWireCommand("no_such_op", nil); err == nil {
		t.Fatal("unknown op decoded")
	}
}

// TestEvolveIgnoresRetiredMembers: an evolve line or record of an earlier
// tree may carry a worker count and an adaptation mode ("workers",
// "adapt"). It decodes, the two members are ignored, and the command
// encodes without them, its check mode kept.
func TestEvolveIgnoresRetiredMembers(t *testing.T) {
	_, args, err := adept2.EncodeCommand(&adept2.Evolve{TypeName: "online_order", Ops: sim.OnlineOrderTypeChange(),
		Options: adept2.EvolveOptions{Mode: adept2.ReplayCheck}})
	if err != nil {
		t.Fatal(err)
	}
	old := append(bytes.TrimSuffix(args, []byte("}")), `,"workers":3,"adapt":1}`...)
	cmd, err := adept2.DecodeWireCommand("evolve", old)
	if err != nil {
		t.Fatalf("decode %s: %v", old, err)
	}
	if ev, ok := cmd.(*adept2.Evolve); !ok || ev.Options.Mode != adept2.ReplayCheck {
		t.Fatalf("decoded %#v, want an evolve with the replay check", cmd)
	}
	if _, again, err := adept2.EncodeCommand(cmd); err != nil || !bytes.Equal(again, args) {
		t.Fatalf("re-encoded %s (%v), want %s", again, err, args)
	}
}

// TestEncodeRefusalNamesTheCommand: every command whose wire form the
// encoder refuses is refused as ErrInvalid naming the command itself, as
// Submit names it, by EncodeCommand and by AppendCommandArgs alike — a
// Resume too, though it journals under the suspend op.
func TestEncodeRefusalNamesTheCommand(t *testing.T) {
	for _, cmd := range []adept2.Command{
		&adept2.CreateInstance{TypeName: "online_order", ID: "inst-\xff"},
		&adept2.StartActivity{Instance: "\xff", Node: "get_order"},
		&adept2.FailActivity{Instance: "inst-1", Node: "get_order", Reason: "boom\xff"},
		&adept2.TimeoutActivity{Instance: "\xff", Node: "get_order"},
		&adept2.RetryActivity{Instance: "\xff", Node: "get_order"},
		&adept2.CompleteActivity{Instance: "inst-1", Node: "get_order", Outputs: map[string]any{"out": math.NaN()}},
		&adept2.Suspend{Instance: "\xff"},
		&adept2.Undo{Instance: "\xff"},
		&adept2.Resume{Instance: "\xff"},
	} {
		_, _, encErr := adept2.EncodeCommand(cmd)
		_, _, appendErr := adept2.AppendCommandArgs(nil, cmd)
		for _, err := range []error{encErr, appendErr} {
			var e *adept2.Error
			if !errors.As(err, &e) || e.Code != adept2.CodeInvalid || e.Op != cmd.CommandName() {
				t.Errorf("%T: %#v, want ErrInvalid with Op %q", cmd, e, cmd.CommandName())
			}
		}
	}
}

// TestWireDecodersBesideWrites: decoders of one System — the shared one
// that makes a new command per decode and a reusing one per goroutine —
// resolve names while another goroutine creates instances and runs them,
// writing the instance registry and the symbol table the decoders read.
// Every command decodes to what DecodeWireCommand makes of the same args,
// whether its instance exists yet or not. Under the race detector this is
// the check that name resolution reads the engine safely.
func TestWireDecodersBesideWrites(t *testing.T) {
	ctx := context.Background()
	sys := adept2.New(adept2.WithOrg(sim.Org()))
	defer sys.Close()
	if _, err := sys.Submit(ctx, &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	const n = 60
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			res, err := sys.Submit(ctx, &adept2.CreateInstance{TypeName: "online_order"})
			if err != nil {
				t.Error(err)
				return
			}
			id := res.(*adept2.Instance).ID()
			for _, step := range orderLifecycle {
				var out map[string]any
				if step.node == "get_order" {
					out = map[string]any{"out": id}
				}
				for _, cmd := range []adept2.Command{
					&adept2.StartActivity{Instance: id, Node: step.node, User: step.user},
					&adept2.CompleteActivity{Instance: id, Node: step.node, User: step.user, Outputs: out},
				} {
					if _, err := sys.Submit(ctx, cmd); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}
	}()
	shared := sys.WireDecoder(false)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dec := shared
			if g%2 == 1 {
				dec = sys.WireDecoder(true)
			}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				step := orderLifecycle[i%len(orderLifecycle)]
				op, args := "start", fmt.Sprintf(`{"instance":"inst-%06d","node":%q,"user":%q}`, i%n+1, step.node, step.user)
				if i%3 == 0 {
					op, args = "complete", fmt.Sprintf(`{"instance":"inst-%06d","node":%q,"outputs":{"out":"o"}}`, i%n+1, step.node)
				}
				got, _, err := dec.Decode([]byte(op), []byte(args))
				if err != nil {
					t.Errorf("goroutine %d: %s %s: %v", g, op, args, err)
					return
				}
				want, _ := adept2.DecodeWireCommand(op, []byte(args))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d: %s %s decodes to %#v, want %#v", g, op, args, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
