package obs

import (
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
			for i := 0; i < 2000; i++ {
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

// TestPrometheusRendering renders a snapshot of a live Set and checks
// it with CheckExposition: every family declared with its TYPE,
// cumulative le buckets whose +Inf sample equals _count, and escaped
// label values.
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
	s.RPCRequest(EpCommands, 70_000, true)
	s.RPCRequest(EpCommands, 90_000, false)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, s.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, `op="we\"ird\\op\n"`) {
		t.Fatalf("label not escaped:\n%s", text)
	}
	if _, err := CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
}

// TestCheckExpositionRefuses feeds the checker one defect at a time.
func TestCheckExpositionRefuses(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, fixture()); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	for name, c := range map[string]struct{ old, new string }{
		"falling bucket":     {`adept2_batch_commands_bucket{le="4"} 4`, `adept2_batch_commands_bucket{le="4"} 2`},
		"+Inf off its count": {`adept2_batch_commands_count 6`, `adept2_batch_commands_count 7`},
		"no +Inf bucket":     {`adept2_batch_commands_bucket{le="+Inf"} 6` + "\n", ""},
		"le out of order":    {`{le="2"} 3`, `{le="0.5"} 3`},
		"undeclared family":  {"# TYPE adept2_instances gauge\n", ""},
		"wrong TYPE":         {"# TYPE adept2_instances gauge", "# TYPE adept2_instances counter"},
		"foreign namespace":  {"adept2_instances 12", "go_instances 12"},
		"bad value":          {"adept2_instances 12", "adept2_instances twelve"},
		"unterminated label": {`{shard="0"} 21`, `{shard="0} 21`},
		"bad escape":         {`op="we\"ird`, `op="we\qird`},
		"stray comment":      {"# HELP adept2_instances", "# NOTE adept2_instances"},
	} {
		bad := strings.Replace(good, c.old, c.new, 1)
		if bad == good {
			t.Fatalf("%s: %q not in the fixture's exposition", name, c.old)
		}
		if _, err := CheckExposition([]byte(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestHistogramSnapshotUnderLoad takes snapshots while observers run:
// every snapshot's buckets sum to its Count, and its rendering passes
// the checker, so /metrics never shows a bucket above +Inf.
func TestHistogramSnapshotUnderLoad(t *testing.T) {
	h := NewHistogram(28, 10)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe((i % 8) << (10 + w))
			}
		}(w)
	}
	defer func() { close(stop); wg.Wait() }()
	for h.Snapshot().Count < 10000 { // the observers are running
	}
	var buf bytes.Buffer
	for i := 0; i < 300; i++ {
		hs := h.Snapshot()
		var sum int64
		for _, n := range hs.Buckets {
			sum += n
		}
		if sum != hs.Count {
			t.Fatalf("snapshot %d: buckets sum to %d, Count is %d", i, sum, hs.Count)
		}
		buf.Reset()
		if err := WritePrometheus(&buf, &Snapshot{Batch: BatchSnapshot{Nanos: hs}}); err != nil {
			t.Fatal(err)
		}
		if _, err := CheckExposition(buf.Bytes()); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
	}
}

// TestRPCOkNeverFalls takes successive snapshots while writers record
// mixed outcomes: the ok sample of adept2_rpc_requests_total, a counter,
// never falls, and Failures never exceeds Requests.
func TestRPCOkNeverFalls(t *testing.T) {
	s := New(nil, []string{"ok"}, 1, Options{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.RPCRequest(EpCommands, 1000, (i+w)%3 != 0)
			}
		}(w)
	}
	defer func() { close(stop); wg.Wait() }()
	var prev int64
	for i := 0; i < 20000; i++ {
		e := s.Snapshot().RPC.Endpoints["commands"]
		if e.Failures > e.Requests {
			t.Fatalf("snapshot %d: %d failures of %d requests", i, e.Failures, e.Requests)
		}
		if ok := e.Requests - e.Failures; ok < prev {
			t.Fatalf("snapshot %d: ok fell from %d to %d", i, prev, ok)
		} else {
			prev = ok
		}
	}
}
