package adept2_test

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	"adept2"
	"adept2/internal/durable"
	"adept2/internal/engine"
	"adept2/internal/sim"
)

// fillRegistry deploys two types and creates 41 instances whose IDs the
// engine assigns, a caller supplies in the engine's style (out of numeric
// order: 300 before 200) or a caller makes up, interleaved; an evolution in
// the middle leaves one type's instances on two versions. It returns the
// IDs in creation order.
func fillRegistry(t *testing.T, sys *adept2.System) []string {
	t.Helper()
	var ids []string
	create := func(typeName, id string) string {
		t.Helper()
		res, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: typeName, ID: id})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.(*adept2.Instance).ID())
		return ids[len(ids)-1]
	}
	for _, s := range []*adept2.Schema{sim.OnlineOrder(), sim.LoopProcess()} {
		if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: s}); err != nil {
			t.Fatal(err)
		}
	}
	create("online_order", "")
	stays := create("online_order", "order-17")
	create("loopy", "inst-000300")
	create("online_order", "inst-000200")
	create("loopy", "")
	if _, err := sys.Submit(context.Background(), &adept2.AdHoc{Instance: stays, Ops: sim.OnlineOrderBiasI2()}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Submit(context.Background(), &adept2.Evolve{TypeName: "online_order", Ops: sim.OnlineOrderTypeChange()}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"zeta", "", "inst-000290", "alpha", "", "inst-000280", "order-2", "", "inst-000270", "Order-1", "", "inst-000260"} {
		create("online_order", "")
		create("loopy", id)
		create("online_order", "")
	}
	return ids
}

// keyOrder returns ids in key order (engine.CompareInstanceIDs).
func keyOrder(ids []string) []string {
	out := slices.Clone(ids)
	slices.SortFunc(out, engine.CompareInstanceIDs)
	return out
}

// TestRegistryAgrees: however an engine filled up — live creates,
// durable.Restore of a capture, a 4-shard full replay that delivers
// creates out of ID order and is sorted afterwards — the instance map, the
// order and the position each instance holds in it say the same thing
// through every listing, and every listing is in key order
// (engine.CompareInstanceIDs: engine-style IDs by number, then the others
// by name), so a live engine and its recovery list alike.
func TestRegistryAgrees(t *testing.T) {
	live := func(t *testing.T) (*engine.Engine, []string) {
		sys := adept2.New(adept2.WithOrg(sim.Org()))
		ids := fillRegistry(t, sys)
		return adept2.EngineOf(sys), keyOrder(ids)
	}
	for _, tc := range []struct {
		name string
		fill func(t *testing.T) (*engine.Engine, []string)
	}{
		{"live", live},
		{"restored", func(t *testing.T) (*engine.Engine, []string) {
			src, ids := live(t)
			st := durable.Stage(src, 1)
			eng := engine.New(sim.Org())
			if err := durable.Restore(eng, st); err != nil {
				t.Fatal(err)
			}
			return eng, ids
		}},
		{"replayed", func(t *testing.T) (*engine.Engine, []string) {
			path := filepath.Join(t.TempDir(), "wal.ndjson")
			sys := openCheckpointed(t, path, shardedCfg())
			ids := fillRegistry(t, sys)
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			sys, err := adept2.Open(path, adept2.WithOrg(sim.Org()))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sys.Close() })
			if info := sys.Recovery(); !info.FullReplay || info.Shards != 4 {
				t.Fatalf("recovery %+v, want a 4-shard full replay", info)
			}
			return adept2.EngineOf(sys), keyOrder(ids)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, want := tc.fill(t)
			all := eng.Instances()
			got := make([]string, len(all))
			for i, inst := range all {
				got[i] = inst.ID()
				if same, ok := eng.Instance(inst.ID()); !ok || same != inst {
					t.Fatalf("Instance(%q) is not the instance listed at %d", inst.ID(), i)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("Instances():\n got %q\nwant %q", got, want)
			}
			if n := eng.NumInstances(); n != len(all) {
				t.Fatalf("NumInstances %d, Instances lists %d", n, len(all))
			}
			for _, limit := range []int{1, 7, 1000} {
				var walked []*adept2.Instance
				for cursor, pages := "", 0; ; pages++ {
					page, next := eng.InstancesPage(cursor, limit)
					if len(page) > limit || pages > len(all) {
						t.Fatalf("limit %d: page %d holds %d instances", limit, pages, len(page))
					}
					walked = append(walked, page...)
					if cursor = next; next == "" {
						break
					}
				}
				if !slices.Equal(walked, all) {
					t.Fatalf("limit %d: the walk lists %d instances, Instances %d", limit, len(walked), len(all))
				}
			}
			// An instance's stored position is its index: the page after it
			// starts at the next one.
			for i, inst := range all {
				page, _ := eng.InstancesPage(inst.ID(), 1)
				if i+1 < len(all) && (len(page) != 1 || page[0] != all[i+1]) || i+1 == len(all) && page != nil {
					t.Fatalf("the page after %q (index %d) is %v", inst.ID(), i, page)
				}
			}
			if page, next := eng.InstancesPage("inst-never", 7); page != nil || next != "" {
				t.Fatalf("unknown cursor: %d instances, next %q", len(page), next)
			}
			seen := 0
			for _, typ := range eng.Types() {
				ofType := eng.InstancesOf(typ, -1)
				if !slices.Equal(ofType, slices.DeleteFunc(slices.Clone(all), func(in *adept2.Instance) bool { return in.TypeName() != typ })) {
					t.Fatalf("InstancesOf(%s, any) is not the listing's %s instances in order", typ, typ)
				}
				seen += len(ofType)
				versions := 0
				for _, v := range eng.Versions(typ) {
					ofVersion := eng.InstancesOf(typ, v)
					if !slices.Equal(ofVersion, slices.DeleteFunc(slices.Clone(ofType), func(in *adept2.Instance) bool { return in.Version() != v })) {
						t.Fatalf("InstancesOf(%s, %d) is not that type's v%d instances in order", typ, v, v)
					}
					versions += len(ofVersion)
				}
				if versions != len(ofType) {
					t.Fatalf("%s: %d instances over its versions, %d of the type", typ, versions, len(ofType))
				}
			}
			if seen != len(all) {
				t.Fatalf("%d instances over the types, %d listed", seen, len(all))
			}
			if on1, on2 := eng.InstancesOf("online_order", 1), eng.InstancesOf("online_order", 2); len(on1) != 1 || len(on2) < 25 {
				t.Fatalf("online_order: %d on v1, %d on v2; the mix this test needs is gone", len(on1), len(on2))
			}
		})
	}
}
