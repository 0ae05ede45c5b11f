package mining

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"adept2/internal/engine"
	"adept2/internal/graph"
	"adept2/internal/history"
	"adept2/internal/model"
	"adept2/internal/obs"
)

// seqSchema builds a three-step sequence and its topology index.
func seqSchema(t *testing.T) *graph.Info {
	t.Helper()
	b := model.NewBuilder("m")
	s, err := b.Build(b.Seq(
		b.Activity("a", "A"), b.Activity("b", "B"), b.Activity("c", "C")))
	if err != nil {
		t.Fatal(err)
	}
	info, err := graph.Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// refFingerprint is the string-keyed reference the optimized fold is
// tested against: build the canonical byte key explicitly, hash it with
// the standard library's FNV-1a. Any divergence between the incremental
// fold and this is a fingerprint bug.
func refFingerprint(reduced []*history.Event) uint64 {
	var key []byte
	for _, e := range reduced {
		if e.Kind != history.Completed {
			continue
		}
		key = append(key, e.Node...)
		key = append(key, 0x1f)
		key = binary.LittleEndian.AppendUint64(key, uint64(int64(e.Decision)))
		if e.Again {
			key = append(key, 1)
		} else {
			key = append(key, 0)
		}
		key = append(key, 0x1e)
	}
	h := fnv.New64a()
	_, _ = h.Write(key)
	return h.Sum64()
}

// TestFingerprintMatchesStringReference: the incremental FNV fold must
// equal the reference string-keyed hasher on randomized reduced
// histories — same node IDs, decisions, Again flags, same order.
func TestFingerprintMatchesStringReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nodes := []string{"a", "b", "long-node-name", "x1", ""}
	for trial := 0; trial < 200; trial++ {
		var evs []*history.Event
		for i, n := 0, rng.Intn(12); i < n; i++ {
			kind := history.Completed
			if rng.Intn(4) == 0 {
				kind = history.Started // must be skipped by both
			}
			evs = append(evs, &history.Event{
				Kind:     kind,
				Node:     nodes[rng.Intn(len(nodes))],
				Decision: int32(rng.Intn(5) - 1),
				Again:    rng.Intn(2) == 0,
			})
		}
		if got, want := Fingerprint(evs), refFingerprint(evs); got != want {
			t.Fatalf("trial %d: Fingerprint %016x != reference %016x", trial, got, want)
		}
	}
}

// TestFingerprintDifferential: failed-then-retried attempts and Timeout
// markers must not appear in variant fingerprints. An instance that
// failed twice and timed out on node b, then completed it on retry,
// must fingerprint identically to one that ran clean — the reduction
// purges the exception markers and superseded attempts, and the
// fingerprint only folds Completed events.
func TestFingerprintDifferential(t *testing.T) {
	info := seqSchema(t)

	clean := &history.Log{}
	for _, n := range []string{"a", "b", "c"} {
		clean.Append(&history.Event{Kind: history.Started, Node: n})
		clean.Append(&history.Event{Kind: history.Completed, Node: n})
	}

	dirty := &history.Log{}
	dirty.Append(&history.Event{Kind: history.Started, Node: "a"})
	dirty.Append(&history.Event{Kind: history.Completed, Node: "a"})
	dirty.Append(&history.Event{Kind: history.Started, Node: "b"})
	dirty.Append(&history.Event{Kind: history.Timeout, Node: "b", Reason: "deadline expired"})
	dirty.Append(&history.Event{Kind: history.Failed, Node: "b", Reason: "attempt 1"})
	dirty.Append(&history.Event{Kind: history.Started, Node: "b"})
	dirty.Append(&history.Event{Kind: history.Failed, Node: "b", Reason: "attempt 2"})
	dirty.Append(&history.Event{Kind: history.Started, Node: "b"})
	dirty.Append(&history.Event{Kind: history.Completed, Node: "b"})
	dirty.Append(&history.Event{Kind: history.Started, Node: "c"})
	dirty.Append(&history.Event{Kind: history.Completed, Node: "c"})

	fpClean := Fingerprint(history.ReduceInto(info, clean.Events(), nil))
	redDirty := history.ReduceInto(info, dirty.Events(), nil)
	fpDirty := Fingerprint(redDirty)
	if fpClean != fpDirty {
		t.Fatalf("fail/timeout/retry leaked into the fingerprint: clean %016x, dirty %016x (reduced: %v)",
			fpClean, fpDirty, redDirty)
	}
	if fpDirty != refFingerprint(redDirty) {
		t.Fatal("optimized fold diverges from the string-keyed reference")
	}

	// Sanity: an actually different path must change the fingerprint.
	short := &history.Log{}
	short.Append(&history.Event{Kind: history.Started, Node: "a"})
	short.Append(&history.Event{Kind: history.Completed, Node: "a"})
	if Fingerprint(history.ReduceInto(info, short.Events(), nil)) == fpClean {
		t.Fatal("distinct paths collapsed to one fingerprint")
	}
}

// view builds a MineView whose reduced history completes the given
// nodes in order.
func view(id, typeName string, version int, nodes ...string) engine.MineView {
	var evs []*history.Event
	for _, n := range nodes {
		evs = append(evs, &history.Event{Kind: history.Completed, Node: n})
	}
	return engine.MineView{ID: id, TypeName: typeName, Version: version, Events: evs, Reduced: evs}
}

// TestMinerDriftClassification: instances below the deployed version
// are stale, instances whose reduced history completes nodes outside
// the deployed node set are foreign, biased instances count as
// non-compliant — and the union feeds the type's NonCompliant row.
func TestMinerDriftClassification(t *testing.T) {
	m := NewMiner(Options{})
	m.Deployed("t", 2, []string{"a", "b"})

	m.Observe(view("i1", "t", 2, "a", "b"), 0)  // current, compliant
	m.Observe(view("i2", "t", 1, "a"), 0)       // stale
	m.Observe(view("i3", "t", 2, "a", "zz"), 0) // foreign node
	biased := view("i4", "t", 2, "a", "b")
	biased.Biased = true
	m.Observe(biased, 1) // ad-hoc deviation

	r := m.Report()
	if len(r.Drift) != 1 {
		t.Fatalf("drift rows: %+v", r.Drift)
	}
	d := r.Drift[0]
	if d.Type != "t" || d.LatestVersion != 2 || d.Instances != 4 ||
		d.Current != 3 || d.Stale != 1 || d.Foreign != 1 || d.Biased != 1 ||
		d.NonCompliant != 3 {
		t.Fatalf("drift row: %+v", d)
	}
	if len(d.ForeignNodes) != 1 || d.ForeignNodes[0] != "zz" {
		t.Fatalf("foreign nodes: %v", d.ForeignNodes)
	}
	if len(r.Shards) != 2 || r.Shards[0].Instances != 3 || r.Shards[1].Instances != 1 {
		t.Fatalf("shard stats: %+v", r.Shards)
	}
}

// TestMinerVariantCapOverflow: the variant table is bounded; instances
// past the cap count in VariantOverflow instead of growing the map, and
// repeat observations of an already-tabled variant still aggregate.
func TestMinerVariantCapOverflow(t *testing.T) {
	m := NewMiner(Options{MaxVariants: 2})
	m.Observe(view("i1", "t", 1, "a"), 0)
	m.Observe(view("i2", "t", 1, "a", "b"), 0)
	m.Observe(view("i3", "t", 1, "a", "b", "c"), 0) // over the cap
	m.Observe(view("i4", "t", 1, "a"), 0)           // existing variant: still counted

	r := m.Report()
	if r.DistinctVariants != 2 || r.VariantOverflow != 1 {
		t.Fatalf("variants %d overflow %d, want 2/1", r.DistinctVariants, r.VariantOverflow)
	}
	if r.Variants[0].Count != 2 || len(r.Variants[0].Path) != 1 {
		t.Fatalf("top variant: %+v", r.Variants[0])
	}
}

// TestMinerNodeConcentrationAndDurations: the per-node table counts
// every physical attempt (failures, timeouts, retries survive even
// though the reduction purges them) and observes stamped
// Started→Completed durations into the histogram.
func TestMinerNodeConcentrationAndDurations(t *testing.T) {
	m := NewMiner(Options{})
	evs := []*history.Event{
		{Kind: history.Started, Node: "b", At: 1000},
		{Kind: history.Timeout, Node: "b"},
		{Kind: history.Failed, Node: "b"},
		{Kind: history.Started, Node: "b", At: 5000}, // the retry
		{Kind: history.Completed, Node: "b", At: 8000},
	}
	red := []*history.Event{{Kind: history.Completed, Node: "b", At: 8000}}
	m.Observe(engine.MineView{ID: "i1", TypeName: "t", Version: 1, Events: evs, Reduced: red}, 0)

	r := m.Report()
	if len(r.Nodes) != 1 {
		t.Fatalf("nodes: %+v", r.Nodes)
	}
	n := r.Nodes[0]
	if n.Starts != 2 || n.Completes != 1 || n.Failures != 1 || n.Timeouts != 1 || n.Retries != 1 {
		t.Fatalf("node concentration: %+v", n)
	}
	if n.Durations.Count != 1 || n.Durations.Sum != 3000 {
		t.Fatalf("duration observed %d/%d, want 1 observation summing 3000 (retry start to completion)",
			n.Durations.Count, n.Durations.Sum)
	}
}

// TestQuantile pins the histogram quantile read: ceil-rank bucket walk,
// upper-bound estimates, 0 on empty, -1 in the unbounded tail.
func TestQuantile(t *testing.T) {
	if got := Quantile(obs.HistogramSnapshot{}, 0.5); got != 0 {
		t.Fatalf("empty histogram quantile: %d", got)
	}
	// Bounds with 4 buckets, shift 0: 1, 2, 4, +inf. A value v lands in
	// the bucket whose upper bound is the next power of two >= v+1, so
	// 1 → bound-2 bucket, 2 → bound-4 bucket, 4 and up → unbounded tail.
	h := obs.NewHistogram(4, 0)
	for _, v := range []int64{1, 1, 2, 2, 2, 4, 4, 8, 8, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := Quantile(s, 0.20); got != 2 {
		t.Fatalf("p20 = %d, want 2", got)
	}
	if got := Quantile(s, 0.50); got != 4 {
		t.Fatalf("p50 = %d, want 4", got)
	}
	if got := Quantile(s, 0.99); got != -1 {
		t.Fatalf("p99 = %d, want -1 (unbounded tail)", got)
	}
}

// TestReportCodecRoundTrip: Decode is strict (unknown fields rejected)
// and a report survives the JSON round-trip bit-identically enough to
// re-render.
func TestReportCodecRoundTrip(t *testing.T) {
	m := NewMiner(Options{})
	m.Deployed("t", 1, []string{"a", "b"})
	m.Observe(view("i1", "t", 1, "a", "b"), 0)
	r := m.Report()

	data, err := Encode(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Instances != 1 || len(back.Variants) != 1 ||
		back.Variants[0].Fingerprint != r.Variants[0].Fingerprint {
		t.Fatalf("round-trip mangled the report: %+v", back)
	}
	if back.Text() == "" {
		t.Fatal("empty text rendering")
	}
	if _, err := Decode([]byte(`{"instances": 1, "bogus": true}`)); err == nil {
		t.Fatal("Decode accepted an unknown field")
	}
}
