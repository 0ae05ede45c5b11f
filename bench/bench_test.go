package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// contract mirrors BENCHMARK.json at the repository root.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func better(m metric) string {
	if m.higher {
		return "higher"
	}
	return "lower"
}

// TestContract holds the tables the benchmark prints from against
// BENCHMARK.json: the same workloads, the same metrics with the same
// units, directions and bounds, in the same order.
func TestContract(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(blob, &c); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Paths, []string{"bench"}) || !reflect.DeepEqual(c.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %v, command %v", c.Paths, c.Command)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got []contractMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != better(m) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match %v", kind, m.name, m.bound)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd, true)
	check("per_layer", c.PerLayer, perLayer, false)
}

// TestWorkloadsAtSmallScale runs every workload at 1/50 scale: two passes
// whose exact counts must agree (measure refuses them otherwise), every
// end-to-end metric present and non-zero, the recovery check made, and a
// second seed running clean.
func TestWorkloadsAtSmallScale(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // timings are not judged here, so the workloads may share the CPUs
			for seed, passes := range map[int64]int{1: 2, 7: 1} {
				o := options{seed: seed, scale: 0.02, passes: passes, dir: t.TempDir()}
				r, err := measure(w, o, nil)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for _, m := range endToEnd {
					if vs := r.samples(m.name); len(vs) < o.passes || r.value(m) <= 0 {
						t.Errorf("seed %d: %s = %v", seed, m.name, vs)
					}
				}
				for _, m := range layerTimings {
					// Only the workload that recovers times checkpoint and recovery.
					recovery := m.unit == "ms"
					if got := len(r.samples(m.name)); (got > 0) != (w.recovers || !recovery) {
						t.Errorf("seed %d: %d samples of %s", seed, got, m.name)
					}
				}
				if w.recovers == (r.proved > 0) {
					t.Errorf("seed %d: the recovery check at small scale made %d operations", seed, r.proved)
				}
			}
		})
	}
}

// TestTracedRunReportsEveryLayer runs the traced mode at small scale and
// checks it emits exactly the per-layer metrics, and a trace file.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			o := options{seed: 1, scale: 0.02, passes: 1, dir: t.TempDir(), out: t.TempDir()}
			res, err := tracedRun(w, o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, want %d", len(res.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("per-layer metric %s missing or in unit %q", m.name, got.Unit)
				}
			}
			if st, err := os.Stat(filepath.Join(o.out, "trace-"+w.name+".json")); err != nil || st.Size() == 0 {
				t.Errorf("no trace written: %v", err)
			}
		})
	}
}
