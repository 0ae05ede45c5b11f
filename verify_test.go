package adept2_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path"
	"reflect"
	"strings"
	"testing"

	"adept2"
	"adept2/internal/durable"
	"adept2/internal/durable/sharded"
	"adept2/internal/sim"
	"adept2/internal/vfs"
)

// putMem replaces name's content on an in-memory disk.
func putMem(t *testing.T, mem *vfs.MemFS, name string, data []byte) {
	t.Helper()
	f, err := mem.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// readMem returns name's content on an in-memory disk.
func readMem(t *testing.T, mem *vfs.MemFS, name string) []byte {
	t.Helper()
	data, err := vfs.ReadFile(mem, name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// memState is everything on an in-memory disk: every directory, and every
// file with its bytes.
func memState(t *testing.T, mem *vfs.MemFS) map[string]string {
	t.Helper()
	state := map[string]string{}
	var walk func(dir string)
	walk = func(dir string) {
		des, err := mem.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range des {
			name := path.Join(dir, de.Name())
			if de.IsDir() {
				state[name+"/"] = ""
				walk(name)
				continue
			}
			state[name] = string(readMem(t, mem, name))
		}
	}
	walk(".")
	return state
}

// newestGen returns the layout's manifest and its newest generation.
func newestGen(t *testing.T, mem *vfs.MemFS) (*sharded.Manifest, sharded.Generation) {
	t.Helper()
	man, err := sharded.LoadManifestFS(mem, sharded.ManifestPath("wal"))
	if err != nil || man == nil || len(man.Generations) == 0 {
		t.Fatalf("manifest: %+v err=%v", man, err)
	}
	return man, man.Generations[len(man.Generations)-1]
}

// rewritePart loads shard k's part of the newest generation, lets edit
// change it, and writes it back under the part's own file name with a
// fresh checksum.
func rewritePart(t *testing.T, mem *vfs.MemFS, l sharded.Layout, k int, edit func(*durable.SystemState)) {
	t.Helper()
	_, gen := newestGen(t, mem)
	part := gen.Parts[k]
	store, err := durable.OpenStoreFS(mem, l.SnapDir(k))
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Load(durable.ManifestEntry{File: part.File, Seq: part.Seq})
	if err != nil {
		t.Fatal(err)
	}
	edit(st)
	file, err := store.Write(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Rename(file, path.Join(l.SnapDir(k), part.File)); err != nil {
		t.Fatal(err)
	}
}

// garbleGenerations overwrites every part of every generation.
func garbleGenerations(t *testing.T, mem *vfs.MemFS, l sharded.Layout) {
	t.Helper()
	man, _ := newestGen(t, mem)
	for _, gen := range man.Generations {
		for k, part := range gen.Parts {
			putMem(t, mem, path.Join(l.SnapDir(k), part.File), []byte("garbage"))
		}
	}
}

// TestVerifyAgreesWithOpen: verify is Open's recovery run and discarded,
// so on every layout — clean, degraded, refused — its verdict is Open's,
// a refusal is Open's own error with its code, a recovery is the
// RecoveryInfo Open reports, and verify leaves every byte where it was.
func TestVerifyAgreesWithOpen(t *testing.T) {
	// seed writes the canonical scenario with a checkpoint after the prefix
	// and, when two is set, a control record and the suffix under a second
	// one. It returns the biased instance.
	seed := func(t *testing.T, opts []adept2.Option, two bool) string {
		t.Helper()
		sys, err := adept2.Open("wal", opts...)
		if err != nil {
			t.Fatal(err)
		}
		i1, i2 := runPrefix(t, sys)
		if _, _, err := sys.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if two {
			if _, err := sys.Submit(context.Background(), &adept2.AddUser{User: &adept2.User{ID: "carl", Roles: []string{"clerk"}}}); err != nil {
				t.Fatal(err)
			}
			runSuffix(t, sys, i1)
			if _, _, err := sys.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
		return i2
	}
	rows := []struct {
		name     string
		shards   []int
		build    func(t *testing.T, mem *vfs.MemFS, l sharded.Layout, opts []adept2.Option)
		refuse   string // in Open's refusal; "" when Open recovers
		fallback bool   // Open recovers past a rejected generation
	}{
		{name: "clean", build: func(t *testing.T, mem *vfs.MemFS, l sharded.Layout, opts []adept2.Option) {
			seed(t, opts, true)
		}},
		{name: "torn journal tail", build: func(t *testing.T, mem *vfs.MemFS, l sharded.Layout, opts []adept2.Option) {
			seed(t, opts, true)
			putMem(t, mem, l.JournalPath(0), append(readMem(t, mem, l.JournalPath(0)), "torn-tail-garbage"...))
		}},
		{name: "newest part torn", fallback: true, build: func(t *testing.T, mem *vfs.MemFS, l sharded.Layout, opts []adept2.Option) {
			seed(t, opts, true)
			_, gen := newestGen(t, mem)
			k := l.Shards / 2
			file := path.Join(l.SnapDir(k), gen.Parts[k].File)
			blob := readMem(t, mem, file)
			blob[len(blob)-3] ^= 0xff
			putMem(t, mem, file, blob)
		}},
		{name: "part fails restore", fallback: true, build: func(t *testing.T, mem *vfs.MemFS, l sharded.Layout, opts []adept2.Option) {
			biased := seed(t, opts, true)
			rewritePart(t, mem, l, sharded.ShardOf(biased, l.Shards), func(st *durable.SystemState) {
				for i := range st.Instances {
					if inst := &st.Instances[i]; len(inst.Bias) > 0 {
						inst.Bias = append(inst.Bias, &adept2.DeleteActivity{ID: "no-such-node"})
					}
				}
			})
		}},
		{name: "part epoch differs from its generation's", fallback: true, build: func(t *testing.T, mem *vfs.MemFS, l sharded.Layout, opts []adept2.Option) {
			seed(t, opts, true)
			rewritePart(t, mem, l, l.Shards-1, func(st *durable.SystemState) { st.Epoch++ })
		}},
		{name: "journal truncated under the newest generation", refuse: "truncated", build: func(t *testing.T, mem *vfs.MemFS, l sharded.Layout, opts []adept2.Option) {
			sys, err := adept2.Open("wal", opts...)
			if err != nil {
				t.Fatal(err)
			}
			i1, _ := runPrefix(t, sys)
			runSuffix(t, sys, i1)
			if _, _, err := sys.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitAfter(string(readMem(t, mem, l.JournalPath(0))), "\n")
			putMem(t, mem, l.JournalPath(0), []byte(strings.Join(lines[:len(lines)/2], "")))
		}},
		{name: "data record past the control tail", shards: []int{4}, refuse: "control log tail", build: func(t *testing.T, mem *vfs.MemFS, l sharded.Layout, opts []adept2.Option) {
			sys, err := adept2.Open("wal", opts...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Submit(context.Background(), &adept2.Deploy{Schema: sim.OnlineOrder()}); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Submit(context.Background(), &adept2.Evolve{TypeName: "online_order", Ops: sim.OnlineOrderTypeChange()}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if _, err := sys.Submit(context.Background(), &adept2.CreateInstance{TypeName: "online_order"}); err != nil {
					t.Fatal(err)
				}
			}
			if err := sys.Close(); err != nil {
				t.Fatal(err)
			}
			control := string(readMem(t, mem, l.JournalPath(0)))
			putMem(t, mem, l.JournalPath(0), []byte(control[:strings.IndexByte(control, '\n')+1]))
		}},
		{name: "stray populated shard journal", refuse: "shard count mismatch", build: func(t *testing.T, mem *vfs.MemFS, l sharded.Layout, opts []adept2.Option) {
			seed(t, opts, false)
			putMem(t, mem, fmt.Sprintf("wal.shard-%d", l.Shards), readMem(t, mem, l.JournalPath(0)))
		}},
		{name: "compacted journal, no bridging generation", refuse: "compacted", build: func(t *testing.T, mem *vfs.MemFS, l sharded.Layout, opts []adept2.Option) {
			seed(t, opts, true)
			_, gen := newestGen(t, mem)
			if _, err := durable.CompactJournalFS(mem, l.JournalPath(0), gen.Parts[0].Seq); err != nil {
				t.Fatal(err)
			}
			garbleGenerations(t, mem, l)
		}},
		{name: "journal reaches a reshard floor, no usable generation", refuse: "floor", build: func(t *testing.T, mem *vfs.MemFS, l sharded.Layout, opts []adept2.Option) {
			from, err := adept2.Open("wal", adept2.WithOrg(sim.Org()), adept2.WithVFS(mem),
				adept2.WithCheckpointing(adept2.CheckpointConfig{Shards: 4, Every: -1}))
			if err != nil {
				t.Fatal(err)
			}
			i1, _ := runPrefix(t, from)
			runSuffix(t, from, i1)
			if err := from.Close(); err != nil {
				t.Fatal(err)
			}
			if err := adept2.Reshard("wal", l.Shards, adept2.WithOrg(sim.Org()), adept2.WithVFS(mem)); err != nil {
				t.Fatal(err)
			}
			garbleGenerations(t, mem, l)
		}},
		{name: "shard without a snapshot directory", fallback: true, build: func(t *testing.T, mem *vfs.MemFS, l sharded.Layout, opts []adept2.Option) {
			seed(t, opts, false)
			if err := mem.RemoveAll(l.SnapDir(l.Shards - 1)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, row := range rows {
		shards := row.shards
		if shards == nil {
			shards = []int{1, 4}
		}
		for _, n := range shards {
			t.Run(fmt.Sprintf("%s/shards=%d", row.name, n), func(t *testing.T) {
				mem := vfs.NewMemFS()
				opts := []adept2.Option{adept2.WithOrg(sim.Org()), adept2.WithVFS(mem),
					adept2.WithCheckpointing(adept2.CheckpointConfig{Shards: n, Every: -1})}
				row.build(t, mem, sharded.Layout{Base: "wal", Shards: n}, opts)

				before := memState(t, mem)
				rep := adept2.VerifyLayout("wal", false, opts...)
				if after := memState(t, mem); !reflect.DeepEqual(before, after) {
					t.Fatalf("verify without -repair changed the layout:\nbefore %q\nafter  %q", before, after)
				}
				sys, err := adept2.Open("wal", opts...)
				if err == nil {
					defer sys.Close()
				}

				if rep.OK() != (err == nil) {
					t.Fatalf("verify OK=%v (problems %v), Open err=%v", rep.OK(), rep.Problems, err)
				}
				if err != nil {
					if row.refuse == "" || !strings.Contains(err.Error(), row.refuse) {
						t.Fatalf("Open refused with %v, want a refusal naming %q", err, row.refuse)
					}
					var want *adept2.Error
					if !errors.As(err, &want) {
						t.Fatalf("Open's refusal %v carries no code", err)
					}
					found := false
					for _, p := range rep.Problems {
						var got *adept2.Error
						found = found || p.Error() == err.Error() && errors.As(p, &got) && got.Code == want.Code
					}
					if !found || rep.Recovery != nil {
						t.Fatalf("verify problems %v (recovery %+v), want Open's %q (%s)", rep.Problems, rep.Recovery, err, want.Code)
					}
					return
				}
				if row.refuse != "" {
					t.Fatalf("Open recovered, want a refusal naming %q", row.refuse)
				}
				if got := len(sys.Recovery().Fallbacks) > 0; got != row.fallback {
					t.Fatalf("fallbacks %q, want some: %v", sys.Recovery().Fallbacks, row.fallback)
				}
				if !reflect.DeepEqual(rep.Recovery, sys.Recovery()) {
					t.Fatalf("verify's recovery %+v, Open's %+v", rep.Recovery, sys.Recovery())
				}
			})
		}
	}
}
