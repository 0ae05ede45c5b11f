// Command bench is the repository's one benchmark: four workloads against
// the engine's public surfaces, four gated end-to-end metrics, the eight
// timings behind them, and — in a separate traced run — the per-layer
// numbers. BENCHMARK.json at the repository root is its contract;
// README.md explains the method.
//
//	bench -workload lifecycle_local -seed 1 -seconds 28 -trace 0
//
// prints every metric by name and, as the last line of standard output,
// one JSON object {"correct","attempted","failed","metrics"}. It exits
// non-zero when any output is not what the seed's model predicts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric describes one reported number.
type metric struct {
	name, unit string
	higher     bool    // better when higher (rates); costs are better lower
	bound      float64 // allowed worsening, end-to-end only
	count      bool    // a count, not a timing: reported as the median of its samples
}

// endToEnd lists the metrics that are gated: a later change is rejected
// when one of them worsens by more than its bound, the share of the parent
// commit's median. ISSUE 12's rule decides what is on it: a timing that
// cannot hold 10 % between two sets of runs of the same code is not given
// a wider bound but moved to the per-layer list — and on this sandbox none
// can (README.md, "Noise budget"). setup_s stays because the benchmark's
// contract requires it, in process CPU seconds and with the widest bound
// the contract allows.
var endToEnd = []metric{
	{"setup_s", "s", false, 0.25, false},
	{"allocs_per_cmd", "count", false, 0.02, true},
	{"stored_bytes_per_cmd", "B", false, 0.02, true},
	{"heap_bytes_per_inst", "B", false, 0.03, true},
}

// layerTimings are the eight timings ISSUE 12 lists end to end and this
// benchmark reports per layer, under the issue's names. Every run measures
// them and prints them; only a traced run puts them in its result.
var layerTimings = []metric{
	{name: "cmd_p50_us", unit: "us"},
	{name: "read_p50_us", unit: "us"},
	{name: "cmds_per_s", unit: "1/s", higher: true},
	{name: "adhoc_p50_us", unit: "us"},
	{name: "migrate_us_per_inst", unit: "us"},
	{name: "checkpoint_ms", unit: "ms"},
	{name: "recover_ms", unit: "ms"},
	{name: "recover_replay_ms", unit: "ms"},
}

// exactCounts are the per-pass values that must be identical on every
// pass of a run: a difference is nondeterminism, not noise.
var exactCounts = []string{"journal_seq", "instances", "stored_bytes",
	"evolution.migrated", "evolution.state_conflict", "evolution.structural_conflict", "evolution.already_finished"}

// verbose prints each phase's duration and each pass's values to stderr.
var verbose bool

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	dir      string
	out      string
	runs     int
	// Tests shrink a run; no flag sets these, so every number the command
	// prints is at the contract's size.
	scale  float64 // multiplies every operation count; 0 means 1
	passes int     // run exactly this many passes instead of filling seconds
}

func main() {
	var o options
	selfcheck := flag.Bool("selfcheck", false, "run two interleaved sets of runs of every workload and compare their medians against the bounds")
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 28, "measure for this long: passes repeat until it has elapsed")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: record spans and report the per-layer metrics instead")
	flag.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "store"), "scratch directory for stores")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory the traced run writes trace-<workload>.json to")
	flag.BoolVar(&verbose, "v", false, "print phase durations to standard error")
	flag.IntVar(&o.runs, "runs", 5, "selfcheck: runs per set")
	flag.Parse()

	// One P for every timed phase: with two, each command's hand-off
	// between the submitter and the committer's flusher doubles the
	// spread of identical runs (README.md, "Run discipline").
	runtime.GOMAXPROCS(1)
	o.dir = filepath.Join(o.dir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(o.dir)

	var err error
	if *selfcheck {
		err = runSelfcheck(o)
	} else {
		err = runOne(o)
	}
	if err != nil {
		os.RemoveAll(o.dir)
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// result is one run's report, the shape of the last output line.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(o options) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	var (
		res *result
		err error
	)
	if o.trace != 0 {
		res, err = tracedRun(*w, o, os.Stdout)
	} else {
		var r *run
		if r, err = measure(*w, o, nil); err == nil {
			res = r.report(os.Stdout)
		}
	}
	if err != nil {
		// A failed check still reports, so the caller sees what failed.
		fmt.Fprintln(os.Stderr, "bench:", err)
		res = &result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]reported{}}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		return jerr
	}
	fmt.Println(string(line))
	if err != nil {
		return fmt.Errorf("%s failed its checks", w.name)
	}
	return nil
}

// run collects the passes of one run.
type run struct {
	w      workload
	passes []*passResult
	proved int           // operations of the recovery check a non-recovering workload makes before its passes
	setups []*passResult // set-ups alone, after the passes
}

// measure runs identical passes — same seed, fresh store each — until the
// time budget is spent, and checks that the exact counts repeat.
func measure(w workload, o options, tr *tracer) (*run, error) {
	if o.scale == 0 {
		o.scale = 1
	}
	r := &run{w: w}
	sw := w.scaled(o.scale)
	var err error
	if r.proved, err = prove(w, o); err != nil {
		return nil, err
	}
	start := time.Now()
	// The first set-up of a process pays for every page of heap it touches
	// and later ones find them mapped, so one set-up alone goes first: every
	// run, however few passes fit into it, then has a warm one to report.
	warm, err := runSetup(sw, o.seed, filepath.Join(o.dir, "pass"))
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, warm)
	last := 0.0 // seconds the last pass took
	for i := 0; ; i++ {
		if o.passes > 0 && i >= o.passes {
			break
		}
		// Fill the time without overrunning it, should the host slow down
		// a little meanwhile.
		if o.passes <= 0 && i > 0 && time.Since(start).Seconds()+1.1*last > o.seconds {
			break
		}
		began := time.Now()
		pr, err := runPass(sw, o.seed, filepath.Join(o.dir, "pass"), w.recovers, tr)
		if err != nil {
			return nil, err
		}
		last = time.Since(began).Seconds()
		if err := r.add(pr); err != nil {
			return nil, err
		}
	}
	// The seconds no whole pass fits into go to further set-ups, so that
	// setup_s has several samples even where a run is one pass.
	for last = 0; o.passes <= 0 && time.Since(start).Seconds()+1.1*last <= o.seconds; {
		began := time.Now()
		pr, err := runSetup(sw, o.seed, filepath.Join(o.dir, "pass"))
		if err != nil {
			return nil, err
		}
		last = time.Since(began).Seconds()
		r.setups = append(r.setups, pr)
	}
	return r, nil
}

// prove is the recovery check of a workload whose passes do not recover:
// one pass at proofScale with checkpoint, crash cut and both recoveries.
// It returns the operations that made.
func prove(w workload, o options) (int, error) {
	if w.recovers {
		return 0, nil
	}
	scale := o.scale * proofScale
	proof, err := runPass(w.scaled(scale), o.seed, filepath.Join(o.dir, "pass"), true, nil)
	if err != nil {
		return 0, fmt.Errorf("recovery check at %g scale: %w", scale, err)
	}
	return proof.attempted, nil
}

// add appends a pass, refusing one whose exact counts differ from the
// first's.
func (r *run) add(pr *passResult) error {
	r.passes = append(r.passes, pr)
	if verbose {
		line, _ := json.Marshal(pr.samples)
		fmt.Fprintf(os.Stderr, "pass %d %s\n", len(r.passes)-1, line)
	}
	for _, name := range exactCounts {
		if got, want := pr.counts[name], r.passes[0].counts[name]; got != want {
			return fmt.Errorf("%s: pass %d counted %s = %d, pass 0 counted %d: the run is not deterministic", r.w.name, len(r.passes)-1, name, got, want)
		}
	}
	return nil
}

// samples pools one metric's samples over every pass and set-up.
func (r *run) samples(name string) []float64 {
	var vs []float64
	for _, p := range slices.Concat(r.passes, r.setups) {
		vs = append(vs, p.samples[name]...)
	}
	return vs
}

// value is the run's number for a metric: a count's median, or the better
// decile of a timing's samples.
func (r *run) value(m metric) float64 {
	switch {
	case m.name == "setup_s":
		return r.setupSeconds()
	case m.count:
		return median(r.samples(m.name))
	}
	return best(r.samples(m.name), m.higher)
}

// setupSeconds is the run's setup_s, the one timing that is gated, so the
// one that has to stay put when the host does not. Three things go into it.
// It is process CPU time: at one P with fsync elided the process never
// waits, so that is wall time less what the hypervisor stole. Every set-up
// of a run does the same work lap by lap, so each lap counts at the
// shortest it took in any of them: a burst of interference that hits one
// set-up's lap is not in the sum. And the sum is scaled by the reference
// kernel's nominal time over its shortest time among the set-ups, which
// takes out the quarter hours when everything the host runs is slower.
func (r *run) setupSeconds() float64 {
	sum, ref := r.setupParts()
	return sum * refNominalMS / ref
}

// setupParts returns the sum of each set-up lap's shortest CPU seconds and
// the reference kernel's shortest CPU ms.
func (r *run) setupParts() (float64, float64) {
	var laps []float64
	ref := math.Inf(1)
	for _, p := range slices.Concat(r.passes, r.setups) {
		for i, s := range p.setup {
			if i == len(laps) {
				laps = append(laps, s)
			}
			laps[i] = min(laps[i], s)
		}
		ref = min(ref, slices.Min(p.refs))
	}
	var sum float64
	for _, s := range laps {
		sum += s
	}
	return sum, ref
}

// layer returns one per-layer number on every pass.
func (r *run) layer(name string) []float64 {
	var vs []float64
	for _, p := range r.passes {
		if v, ok := p.layer[name]; ok {
			vs = append(vs, v)
		}
	}
	return vs
}

// best is the better decile of a timing's samples. Host interference on
// this sandbox switches on and off at the grain of a slice and only ever
// slows one down, so the good tail of many short slices is the part of the
// distribution that repeats from run to run (README.md, "Noise budget").
func best(vs []float64, higher bool) float64 {
	s := sorted(vs)
	if len(s) == 0 {
		return 0
	}
	k := (len(s) - 1) / 10
	if higher {
		k = len(s) - 1 - k
	}
	return s[k]
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

func median(vs []float64) float64 {
	s := sorted(vs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// report prints every end-to-end metric and returns the run's result.
func (r *run) report(out io.Writer) *result {
	res := &result{Correct: true, Metrics: map[string]reported{}}
	res.Attempted = r.proved
	for _, p := range slices.Concat(r.passes, r.setups) {
		res.Attempted += p.attempted
	}
	fmt.Fprintf(out, "workload %s: %d passes and %d set-ups, ops_attempted %d, ops_failed 0, lost_acked_writes 0\n", r.w.name, len(r.passes), len(r.setups), res.Attempted)
	sum, ref := r.setupParts()
	fmt.Fprintf(out, "setup_s: shortest laps sum to %.4f CPU s, reference kernel %.4f ms against %.2f nominal\n", sum, ref, refNominalMS)
	fmt.Fprintf(out, "%-22s %-6s %14s %14s %14s %14s %7s %6s\n", "metric", "unit", "value", "median", "min", "max", "samples", "bound")
	for _, m := range endToEnd {
		vs := r.samples(m.name)
		s := sorted(vs)
		v := r.value(m)
		fmt.Fprintf(out, "%-22s %-6s %14.4f %14.4f %14.4f %14.4f %7d %5.0f%%\n", m.name, m.unit, v, median(vs), s[0], s[len(s)-1], len(vs), m.bound*100)
		res.Metrics[m.name] = reported{v, m.unit}
	}
	for _, m := range layerTimings {
		if vs := r.samples(m.name); len(vs) > 0 {
			s := sorted(vs)
			fmt.Fprintf(out, "%-22s %-6s %14.4f %14.4f %14.4f %14.4f %7d %6s\n", m.name, m.unit, r.value(m), median(vs), s[0], s[len(s)-1], len(vs), "layer")
		}
	}
	for _, name := range exactCounts {
		fmt.Fprintf(out, "%-22s %-6s %14d   (identical on every pass)\n", name, "count", r.passes[0].counts[name])
	}
	return res
}
