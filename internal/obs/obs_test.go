package obs

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety exercises every recording method through nil receivers —
// the Disabled contract: no panic, no effect, zero reads.
func TestNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Fatal("nil counter read non-zero")
	}
	var g *Gauge
	g.Set(7)
	g.Add(3)
	if g.Load() != 0 {
		t.Fatal("nil gauge read non-zero")
	}
	var h *Histogram
	h.Observe(42)
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Fatal("nil histogram counted")
	}
	if s := h.Snapshot(); s.Count != 0 || len(s.Buckets) != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
	var r *TraceRing
	if r.Sample() {
		t.Fatal("nil ring sampled")
	}
	r.Publish(Span{Op: "x"})
	if r.Snapshot() != nil {
		t.Fatal("nil ring snapshot not nil")
	}
	var m *CommitterMetrics
	m.ObserveFsync(1)
	m.ObserveBatch(1)
	m.RetryInc()
	m.WedgeInc()
	m.HealInc()

	// Disabled is the nil *Set; its methods must be no-ops too.
	Disabled.SubmitOK(0, 100)
	Disabled.SubmitBatched(0)
	Disabled.SubmitErr(0, 1)
	Disabled.ShardAppend(0, 3)
	if Disabled.OpOK(0) != 0 || Disabled.ShardAppends(0) != 0 {
		t.Fatal("Disabled read non-zero")
	}
	snap := Disabled.Snapshot()
	if snap == nil || len(snap.Ops) != 0 {
		t.Fatal("Disabled snapshot not empty")
	}
}

// TestDisabledAllocationFree pins the acceptance criterion: the
// metrics-off recording path allocates nothing.
func TestDisabledAllocationFree(t *testing.T) {
	var m *CommitterMetrics
	var r *TraceRing
	allocs := testing.AllocsPerRun(200, func() {
		Disabled.SubmitOK(3, 1234)
		Disabled.SubmitErr(3, 2)
		Disabled.SubmitBatched(3)
		Disabled.ShardAppend(1, 2)
		r.Sample()
		m.ObserveFsync(99)
		m.ObserveBatch(4)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocated %.1f per run, want 0", allocs)
	}
}

// TestHistogramBuckets verifies the power-of-two bucketing: bucket
// bits.Len64(v>>shift), clamped into the final slot, sum/count exact.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(4, 0)
	for _, v := range []int64{0, 1, 2, 3, 4, 1 << 40, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	// -5 clamps to 0; sum = 0+1+2+3+4+2^40+0.
	if want := int64(10 + 1<<40); s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
	// Buckets: v=0,-5 → bucket 0; v=1 → 1; v=2,3 → 2; v=4, 2^40 (clamped) → 3.
	want := []int64{2, 1, 2, 2}
	if len(s.Buckets) != 4 {
		t.Fatalf("buckets = %v, want 4 entries", s.Buckets)
	}
	for i, n := range want {
		if s.Buckets[i] != n {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Buckets[i], n, s.Buckets)
		}
	}
	// Bounds: 1, 2, 4 then -1 for the unbounded final bucket.
	if s.Bounds[0] != 1 || s.Bounds[1] != 2 || s.Bounds[2] != 4 || s.Bounds[3] != -1 {
		t.Fatalf("bounds = %v", s.Bounds)
	}
	var total int64
	for _, n := range s.Buckets {
		total += n
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

// TestHistogramShift checks the unit scaling: shift 10 buckets by ~1µs.
func TestHistogramShift(t *testing.T) {
	h := NewHistogram(28, 10)
	h.Observe(1023) // < 2^10 → bucket 0
	h.Observe(1024) // 1024>>10 = 1 → bucket 1
	h.Observe(4096) // 4 → bits 3 → bucket 3
	s := h.Snapshot()
	if s.Buckets[0] != 1 || s.Buckets[1] != 1 || s.Buckets[3] != 1 {
		t.Fatalf("buckets = %v", s.Buckets)
	}
	if s.Bounds[0] != 1024 || s.Bounds[1] != 2048 {
		t.Fatalf("bounds = %v", s.Bounds)
	}
	// Trailing empties trimmed: nothing past bucket 3.
	if len(s.Buckets) != 4 {
		t.Fatalf("snapshot not trimmed: %v", s.Buckets)
	}
}

// TestRingSampling checks the 1/N sampling cadence.
func TestRingSampling(t *testing.T) {
	r := NewTraceRing(8, 4)
	hits := 0
	for i := 0; i < 100; i++ {
		if r.Sample() {
			hits++
		}
	}
	if hits != 25 {
		t.Fatalf("sampled %d of 100 at 1/4, want 25", hits)
	}
	all := NewTraceRing(2, 1)
	for i := 0; i < 10; i++ {
		if !all.Sample() {
			t.Fatal("1/1 ring skipped a sample")
		}
	}
}

// TestRingPublish checks wrap-around and snapshot capping.
func TestRingPublish(t *testing.T) {
	r := NewTraceRing(4, 1)
	for i := 0; i < 6; i++ {
		r.Publish(Span{Op: "op", Seq: i + 1})
	}
	spans := r.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("snapshot len = %d, want 4 (ring capacity)", len(spans))
	}
	// Slots 0,1 were overwritten by seqs 5,6; slots 2,3 hold 3,4.
	seqs := map[int]bool{}
	for _, sp := range spans {
		seqs[sp.Seq] = true
	}
	for _, want := range []int{3, 4, 5, 6} {
		if !seqs[want] {
			t.Fatalf("seq %d missing from %v", want, spans)
		}
	}
}

// TestRingConcurrent hammers Publish and Snapshot together; -race proves
// the per-slot mutex discipline, the asserts prove spans never tear.
func TestRingConcurrent(t *testing.T) {
	r := NewTraceRing(8, 1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// Op and Seq move together; a torn span would mismatch.
				r.Publish(Span{Op: strconv.Itoa(w), Seq: w, SubmitNanos: int64(i)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			for _, sp := range r.Snapshot() {
				if sp.Op != strconv.Itoa(sp.Seq) {
					t.Errorf("torn span: op %q seq %d", sp.Op, sp.Seq)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
}

// TestSetSnapshot checks the op-family assembly: never-submitted ops are
// skipped, outcome codes split, batched subsets carried.
func TestSetSnapshot(t *testing.T) {
	ops := []string{"alpha", "beta"}
	codes := []string{"ok", "invalid", "conflict"}
	s := New(ops, codes, 2, Options{RingSlots: 4, SampleEvery: 1})
	s.SubmitOK(0, 1000)
	s.SubmitOK(0, 2000)
	s.SubmitErr(0, 2) // conflict
	s.SubmitBatched(0)
	s.ShardAppend(0, 3)
	s.ShardAppend(1, 2)
	snap := s.Snapshot()
	if len(snap.Ops) != 1 {
		t.Fatalf("ops = %v, want only alpha", snap.Ops)
	}
	a := snap.Ops["alpha"]
	if a.OK != 3 || a.Batched != 1 {
		t.Fatalf("alpha ok=%d batched=%d", a.OK, a.Batched)
	}
	if a.Errors["conflict"] != 1 || len(a.Errors) != 1 {
		t.Fatalf("alpha errors = %v", a.Errors)
	}
	if a.OK-a.Batched != a.Latency.Count {
		t.Fatalf("latency count %d != ok-batched %d", a.Latency.Count, a.OK-a.Batched)
	}
	if len(snap.Shards) != 2 || snap.Shards[0].Appends != 3 || snap.Shards[1].Appends != 2 {
		t.Fatalf("shards = %+v", snap.Shards)
	}
}

// TestPrometheusRendering renders a populated snapshot and validates the
// exposition format: headers for every family, cumulative le buckets
// whose +Inf sample equals _count, and escaped label values.
func TestPrometheusRendering(t *testing.T) {
	ops := []string{`we"ird\op` + "\n", "plain"}
	codes := []string{"ok", "invalid"}
	s := New(ops, codes, 1, Options{RingSlots: 4, SampleEvery: 1})
	s.SubmitOK(0, 1500)
	s.SubmitOK(1, 3000)
	s.SubmitOK(1, 4_000_000)
	s.SubmitErr(1, 1)
	s.ShardAppend(0, 3)
	s.Committer.ObserveFsync(250_000)
	s.Committer.ObserveBatch(12)
	snap := s.Snapshot()

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, snap); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	// Escaping: the weird op renders with \" \\ \n escapes.
	if !strings.Contains(text, `op="we\"ird\\op\n"`) {
		t.Fatalf("label not escaped:\n%s", text)
	}

	// Parse every line; collect TYPE-declared families and samples.
	families := map[string]string{}
	type sample struct {
		labels string
		value  float64
	}
	samples := map[string][]sample{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 4 || (f[1] != "HELP" && f[1] != "TYPE") {
				t.Fatalf("bad comment line: %q", line)
			}
			if f[1] == "TYPE" {
				families[f[2]] = f[3]
			}
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("bad sample line: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		name, labels := line[:i], ""
		if j := strings.IndexByte(name, '{'); j >= 0 {
			labels = name[j:]
			name = name[:j]
		}
		samples[name] = append(samples[name], sample{labels, v})
	}
	for _, fam := range []string{
		"adept2_submit_total", "adept2_submit_latency_seconds",
		"adept2_shard_appends_total", "adept2_committer_fsync_seconds",
		"adept2_checkpoint_total", "adept2_exception_failures_total",
		"adept2_sweep_lag_seconds", "adept2_instances", "adept2_wedged",
	} {
		if _, ok := families[fam]; !ok {
			t.Fatalf("family %s missing", fam)
		}
	}

	// Histogram contract per labelset: buckets cumulative, +Inf == count.
	for fam, kind := range families {
		if kind != "histogram" {
			continue
		}
		counts := map[string]float64{}
		for _, sm := range samples[fam+"_count"] {
			counts[sm.labels] = sm.value
		}
		byLabels := map[string][]sample{}
		for _, sm := range samples[fam+"_bucket"] {
			base, le := splitLe(t, sm.labels)
			byLabels[base] = append(byLabels[base], sample{le, sm.value})
		}
		for base, buckets := range byLabels {
			prev := -1.0
			last := buckets[len(buckets)-1]
			if last.labels != "+Inf" {
				t.Fatalf("%s%s: final bucket le=%q, want +Inf", fam, base, last.labels)
			}
			for _, b := range buckets {
				if b.value < prev {
					t.Fatalf("%s%s: buckets not cumulative: %v", fam, base, buckets)
				}
				prev = b.value
			}
			key := base
			if key == "{}" {
				key = ""
			}
			if last.value != counts[key] {
				t.Fatalf("%s%s: +Inf %v != count %v", fam, base, last.value, counts[key])
			}
		}
	}
}

// splitLe strips the le label out of a bucket labelset, returning the
// remaining labels (normalized) and the le value.
func splitLe(t *testing.T, labels string) (string, string) {
	t.Helper()
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var rest []string
	le := ""
	for _, part := range strings.Split(inner, ",") {
		if strings.HasPrefix(part, `le="`) {
			le = strings.TrimSuffix(strings.TrimPrefix(part, `le="`), `"`)
		} else if part != "" {
			rest = append(rest, part)
		}
	}
	if le == "" {
		t.Fatalf("bucket labels %q missing le", labels)
	}
	return "{" + strings.Join(rest, ",") + "}", le
}
