package adept2_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adept2"
	"adept2/internal/sim"
)

// oneStepSchema builds a minimal deployable schema with a single manual
// activity, so tests can reach the completed-instance state cheaply.
func oneStepSchema(t *testing.T) *adept2.Schema {
	t.Helper()
	b := adept2.NewBuilder("one_step")
	frag := b.Seq(b.Activity("a", "A", adept2.WithRole("clerk")))
	s, err := b.Build(frag)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fakeCommand is a foreign Command implementation the registry must
// reject.
type fakeCommand struct{}

func (fakeCommand) CommandName() string { return "fake" }

// TestErrorTaxonomy asserts that every façade failure mode maps onto the
// right errors.Is sentinel of the adept2.Error taxonomy.
func TestErrorTaxonomy(t *testing.T) {
	sys := adept2.New(adept2.WithOrg(sim.Org()))
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: oneStepSchema(t)}); err != nil {
		t.Fatal(err)
	}

	// A running instance with one completed step (get_order by ann).
	res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
	if err != nil {
		t.Fatal(err)
	}
	running := res.(*adept2.Instance)
	if _, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: running.ID(), Node: "get_order", User: "ann", Outputs: map[string]any{"out": "o1"}}); err != nil {
		t.Fatal(err)
	}
	// A suspended instance.
	res, err = sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
	if err != nil {
		t.Fatal(err)
	}
	frozen := res.(*adept2.Instance)
	if _, err := sys.Submit(context.Background(), &adept2.Suspend{Instance: frozen.ID()}); err != nil {
		t.Fatal(err)
	}
	// A completed instance.
	res, err = sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "one_step"})
	if err != nil {
		t.Fatal(err)
	}
	done := res.(*adept2.Instance)
	if _, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: done.ID(), Node: "a", User: "ann"}); err != nil {
		t.Fatal(err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name string
		call func() error
		want *adept2.Error
	}{
		{"duplicate user", func() error {
			_, err := sys.Submit(context.Background(), &adept2.AddUser{User: &adept2.User{ID: "ann"}})
			return err
		}, adept2.ErrConflict},
		{"empty user ID", func() error {
			_, err := sys.Submit(context.Background(), &adept2.AddUser{User: &adept2.User{}})
			return err
		}, adept2.ErrInvalid},
		{"stale deploy version", func() error {
			_, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()})
			return err
		}, adept2.ErrVersionSkew},
		{"create of unknown type", func() error {
			_, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "no_such_type"})
			return err
		}, adept2.ErrNotFound},
		{"complete on unknown instance", func() error {
			_, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: "inst-999999", Node: "get_order", User: "ann"})
			return err
		}, adept2.ErrNotFound},
		{"complete of unknown node", func() error {
			_, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: running.ID(), Node: "no_such_node", User: "ann"})
			return err
		}, adept2.ErrNotFound},
		{"start a completed node", func() error {
			_, err := sys.Submit(context.Background(), &adept2.StartActivity{Instance: running.ID(), Node: "get_order", User: "ann"})
			return err
		}, adept2.ErrConflict},
		{"complete without the role", func() error {
			_, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: running.ID(), Node: "collect_data", User: "bob"})
			return err
		}, adept2.ErrDenied},
		{"complete while suspended", func() error {
			_, err := sys.Submit(context.Background(), &adept2.CompleteActivity{Instance: frozen.ID(), Node: "get_order", User: "ann", Outputs: map[string]any{"out": "x"}})
			return err
		}, adept2.ErrSuspended},
		{"suspend a completed instance", func() error {
			_, err := sys.Submit(context.Background(), &adept2.Suspend{Instance: done.ID()})
			return err
		}, adept2.ErrCompleted},
		{"ad-hoc change of a completed instance", func() error {
			_, err := sys.Submit(context.Background(), &adept2.AdHoc{Instance: done.ID(), Ops: sim.OnlineOrderBiasI2()})
			return err
		}, adept2.ErrCompleted},
		{"resume a running instance", func() error {
			_, err := sys.Submit(context.Background(), &adept2.Resume{Instance: running.ID()})
			return err
		}, adept2.ErrConflict},
		{"non-compliant ad-hoc change", func() error {
			// Deleting an already-completed activity violates its state
			// condition.
			_, err := sys.Submit(context.Background(), &adept2.AdHoc{Instance: running.ID(), Ops: []adept2.Operation{&adept2.DeleteActivity{ID: "get_order"}}})
			return err
		}, adept2.ErrNotCompliant},
		{"undo without changes", func() error {
			_, err := sys.Submit(context.Background(), &adept2.Undo{Instance: running.ID()})
			return err
		}, adept2.ErrConflict},
		{"evolve unknown type", func() error {
			_, err := sys.Submit(context.Background(), &adept2.Evolve{TypeName: "no_such_type", Ops: sim.OnlineOrderTypeChange()})
			return err
		}, adept2.ErrNotFound},
		{"foreign command implementation", func() error {
			_, err := sys.Submit(context.Background(), fakeCommand{})
			return err
		}, adept2.ErrInvalid},
		{"canceled context", func() error {
			_, err := sys.Submit(canceled, &adept2.Suspend{Instance: running.ID()})
			return err
		}, adept2.ErrCanceled},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if err == nil {
				t.Fatal("expected an error")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("errors.Is(%v, code %q) = false", err, tc.want.Code)
			}
			var e *adept2.Error
			if !errors.As(err, &e) {
				t.Fatalf("error %v does not carry *adept2.Error", err)
			}
			if e.Op == "" {
				t.Fatalf("error %v has no Op", err)
			}
		})
	}
}

// TestErrorTaxonomyInstanceMatch: errors.Is with a populated Instance
// field narrows to that instance.
func TestErrorTaxonomyInstanceMatch(t *testing.T) {
	sys := adept2.New(adept2.WithOrg(sim.Org()))
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"})
	if err != nil {
		t.Fatal(err)
	}
	inst := res.(*adept2.Instance)
	_, err = sys.Submit(context.Background(), &adept2.Resume{Instance: inst.ID()})
	if !errors.Is(err, &adept2.Error{Code: adept2.CodeConflict, Instance: inst.ID()}) {
		t.Fatalf("instance-narrowed match failed for %v", err)
	}
	if errors.Is(err, &adept2.Error{Code: adept2.CodeConflict, Instance: "inst-999999"}) {
		t.Fatalf("instance-narrowed match must not cross instances: %v", err)
	}
}

// TestErrorTaxonomyWedged: Health surfaces a persistently failing
// durability pipeline as ErrWedged (here: the snapshot store directory is
// replaced by a file, so the background checkpoint keeps failing).
func TestErrorTaxonomyWedged(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.ndjson")
	snaps := filepath.Join(dir, "snaps")
	cfg := adept2.CheckpointConfig{Dir: snaps, Every: 1}
	sys := openCheckpointed(t, path, cfg)
	defer sys.Close()
	if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Health(); err != nil {
		t.Fatalf("healthy system reports %v", err)
	}

	// Break the snapshot store out from under the checkpointer.
	if err := os.RemoveAll(snaps); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snaps, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Commands keep succeeding (the journal is fine) while background
	// checkpoints fail; Health must say wedged.
	for i := 0; i < 4; i++ {
		if _, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"}); err != nil {
			t.Fatal(err)
		}
		if err := sys.WaitCheckpoints(); err != nil {
			break
		}
	}
	err := sys.Health()
	if err == nil {
		t.Fatal("Health must report the failing checkpointer")
	}
	if !errors.Is(err, adept2.ErrWedged) {
		t.Fatalf("errors.Is(%v, ErrWedged) = false", err)
	}
}

// TestErrorTaxonomyUnrecoverable: recovery refusals (journal truncated
// below the newest snapshot) carry ErrUnrecoverable.
func TestErrorTaxonomyUnrecoverable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.ndjson")
	cfg := adept2.CheckpointConfig{Every: -1}
	sys := openCheckpointed(t, path, cfg)
	i1, _ := runPrefix(t, sys)
	runSuffix(t, sys, i1)
	if _, _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n")
	if err := os.WriteFile(path, []byte(strings.Join(lines[:len(lines)/2], "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = adept2.Open(path, adept2.WithOrg(sim.Org()), adept2.WithCheckpointing(cfg))
	if err == nil || !errors.Is(err, adept2.ErrUnrecoverable) {
		t.Fatalf("truncated journal must yield ErrUnrecoverable, got %v", err)
	}
}

// TestErrorTaxonomyShardSkew: opening a sharded layout with a conflicting
// shard count is a version-skew refusal (reshard offline instead).
func TestErrorTaxonomyShardSkew(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	sys, err := adept2.Open(path, adept2.WithCheckpointing(adept2.CheckpointConfig{Shards: 2, Every: -1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = adept2.Open(path, adept2.WithCheckpointing(adept2.CheckpointConfig{Shards: 4, Every: -1}))
	if err == nil || !errors.Is(err, adept2.ErrVersionSkew) {
		t.Fatalf("shard-count mismatch must yield ErrVersionSkew, got %v", err)
	}
}
