package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is a Snapshot that fills every family the renderers know: two
// ops, one with `"`, `\` and a newline in its name; two error codes; two
// shards, one wedged; two RPC endpoints, one with failures; two policy
// actions; histograms with and without an unbounded bucket, and one
// empty. testdata/metrics.prom and testdata/metrics.json are its
// Prometheus text and JSON as the renderer wrote them before the family
// table existed; since then they have changed only where the fixture or a
// family's HELP text did, never to follow a renderer change.
func fixture() *Snapshot {
	return &Snapshot{
		Ops: map[string]OpSnapshot{
			"we\"ird\\op\n": {
				OK:      3,
				Errors:  map[string]int64{"invalid": 4, "conflict": 1},
				Latency: HistogramSnapshot{Count: 3, Sum: 7000, Bounds: []int64{1024, 2048, 4096}, Buckets: []int64{1, 0, 2}},
			},
			"plain": {
				OK:      9,
				Batched: 5,
				Errors:  map[string]int64{"internal": 2},
				Latency: HistogramSnapshot{Count: 4, Sum: 123456789, Bounds: []int64{1024, 2048, -1}, Buckets: []int64{2, 1, 1}},
			},
		},
		Batch: BatchSnapshot{
			Size: HistogramSnapshot{Count: 6, Sum: 30, Bounds: []int64{1, 2, 4, 8}, Buckets: []int64{0, 3, 1, 2}},
		},
		Shards: []ShardSnapshot{
			{Shard: 0, Appends: 17, Seq: 21, Depth: 0},
			{Shard: 1, Appends: 4, Seq: 9, Depth: 3, Wedged: true},
		},
		Committer: CommitterSnapshot{
			Fsync:        HistogramSnapshot{Count: 5, Sum: 2_500_000, Bounds: []int64{1 << 18, 1 << 19, 1 << 20}, Buckets: []int64{1, 3, 1}},
			BatchRecords: HistogramSnapshot{Count: 8, Sum: 13, Bounds: []int64{1, 2, 4}, Buckets: []int64{5, 2, 1}},
			Wedges:       2,
			Heals:        1,
		},
		Checkpoint: CheckpointSnapshot{
			Count:        3,
			Failures:     1,
			Nanos:        HistogramSnapshot{Count: 3, Sum: 1_750_000_000, Bounds: []int64{1 << 29, 1 << 30, -1}, Buckets: []int64{1, 1, 1}},
			BytesWritten: 40960,
			BytesRead:    8192,
		},
		Recovery: RecoverySnapshot{Count: 1, Nanos: 2_500_000_000, Replayed: 120, Fallbacks: 1, FullReplays: 1},
		Exception: ExceptionSnapshot{
			Failures:      7,
			Timeouts:      2,
			Retries:       3,
			Actions:       map[string]int64{"retry": 3, "suspend": 1},
			Compensated:   4,
			Sweeps:        11,
			SweepErrors:   1,
			SweepNanos:    HistogramSnapshot{Count: 11, Sum: 33_000, Bounds: []int64{1024, 2048, 4096}, Buckets: []int64{2, 4, 5}},
			SweepLagNanos: 1_500_000,
		},
		RPC: RPCSnapshot{
			Endpoints: map[string]RPCEndpointSnapshot{
				"commands":   {Requests: 40, Failures: 2, Latency: HistogramSnapshot{Count: 40, Sum: 4_000_000, Bounds: []int64{65536, 131072, -1}, Buckets: []int64{30, 9, 1}}},
				"watermarks": {Requests: 3, Latency: HistogramSnapshot{Count: 3, Sum: 900_000, Bounds: []int64{262144, 524288}, Buckets: []int64{2, 1}}},
			},
			OpenStreams:  2,
			StreamEvents: 57,
			DecodeErrors: 1,
		},
		Engine: EngineSnapshot{Instances: 12, WorklistDepth: 5, OpenExceptions: 1},
		Health: HealthSnapshot{Wedged: true, WedgedShards: []int{1}, CheckpointErr: "disk full", CleanupErrs: 2, FlushRetries: 5},
		Traces: []Span{
			{Op: "plain", Instance: "inst-000001", Shard: 1, Seq: 9, SubmitNanos: 1000, AppliedNanos: 1500, DurableNanos: 4000},
			{Op: "we\"ird\\op\n", Shard: 0, Seq: 21, SubmitNanos: 2000, Err: "conflict"},
		},
	}
}

// TestGoldenRendering holds the renderers to the fixture's files: the
// Prometheus text and the JSON byte for byte as written before the
// family table, and the text form as the table walk writes it.
func TestGoldenRendering(t *testing.T) {
	var prom, text bytes.Buffer
	if err := WritePrometheus(&prom, fixture()); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&text, fixture()); err != nil {
		t.Fatal(err)
	}
	js, err := json.MarshalIndent(fixture(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for file, got := range map[string][]byte{
		"metrics.prom": prom.Bytes(),
		"metrics.json": append(js, '\n'),
		"metrics.txt":  text.Bytes(),
	} {
		want, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs:\n--- got\n%s\n--- want\n%s", file, got, want)
		}
	}
	if _, err := CheckExposition(prom.Bytes()); err != nil {
		t.Fatalf("fixture exposition: %v", err)
	}
}

// TestFamilyTable holds the catalogue to the naming rules of the
// package doc, and WriteText to its rows without a seconds unit.
func TestFamilyTable(t *testing.T) {
	labelSpaces := map[string]bool{"op": true, "code": true, "shard": true, "action": true, "endpoint": true}
	byName := map[string]*family{}
	for i := range families {
		f := &families[i]
		if byName[f.name] != nil {
			t.Errorf("%s declared twice", f.name)
		}
		byName[f.name] = f
		if !strings.HasPrefix(f.name, "adept2_") {
			t.Errorf("%s is outside the adept2_ namespace", f.name)
		}
		if (f.kind == counter) != strings.HasSuffix(f.name, "_total") {
			t.Errorf("%s: a %s, and only a counter, ends in _total", f.name, f.kind)
		}
		if (f.scale == 1e-9) != strings.Contains(f.name, "_seconds") || (f.scale != 1e-9 && f.scale != 1) {
			t.Errorf("%s: scale %v; 1e-9 exactly when the name says seconds, else 1", f.name, f.scale)
		}
		for _, k := range f.labels {
			if !labelSpaces[k] {
				t.Errorf("%s: label %q is not one of the fixed label spaces", f.name, k)
			}
		}
	}
	var text bytes.Buffer
	if err := WriteText(&text, fixture()); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(text.String(), "\n"), "\n") {
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("text line %q is not a sample", line)
		}
		name := m[1]
		f := byName[name]
		if f == nil || f.kind == histogram || f.scale != 1 {
			t.Errorf("WriteText rendered %q", line)
		}
		seen[name] = true
	}
	for _, f := range families {
		if inText(&f) && !seen[f.name] {
			t.Errorf("WriteText left out %s, which the fixture fills", f.name)
		}
	}
}
