package persist

import "testing"

// benchArgs is a representative journaled command payload.
type benchArgs struct {
	Instance string         `json:"instance"`
	Node     string         `json:"node"`
	User     string         `json:"user"`
	Outputs  map[string]any `json:"outputs"`
}

func benchPayload() *benchArgs {
	return &benchArgs{
		Instance: "inst-000042",
		Node:     "approve_order",
		User:     "ann",
		Outputs:  map[string]any{"approved": true, "amount": 1299.50},
	}
}

// BenchmarkJournalAppend measures the hot append path alone: one record
// encoded into the pending buffer, which is flushed to an in-memory file
// off the clock so that it does not grow with b.N.
func BenchmarkJournalAppend(b *testing.B) {
	j, _ := memJournal(b)
	defer j.Close()
	args := benchPayload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.AppendRecord("complete", 0, args); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			b.StopTimer()
			if err := j.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkJournalAppendFlush measures append plus flush per record — the
// lone writer's path — against an in-memory file (no disk, no fsync wait).
func BenchmarkJournalAppendFlush(b *testing.B) {
	j, _ := memJournal(b)
	defer j.Close()
	args := benchPayload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.AppendRecord("complete", 0, args); err != nil {
			b.Fatal(err)
		}
		if err := j.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendReusedBuffers pins that buffer reuse keeps records wire-
// compatible with the scanner-based reader: many appends through the same
// journal round-trip exactly.
func TestAppendReusedBuffers(t *testing.T) {
	j, mem := memJournal(t)
	for i := 0; i < 100; i++ {
		stage(t, j, "op", map[string]int{"i": i})
	}
	recs, err := loadAll(t, flushed(t, j, mem))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 100 {
		t.Fatalf("got %d records, want 100", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != i+1 || rec.Op != "op" {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
}
