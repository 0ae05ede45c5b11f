package persist

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"adept2/internal/vfs"
)

// failWrites fails every write with err after persisting torn bytes of it.
func failWrites(err error, torn int) vfs.Script {
	return func(n int64, op vfs.OpRef) vfs.Decision {
		if op.Kind == vfs.OpWrite {
			return vfs.Decision{Err: err, TornPrefix: torn}
		}
		return vfs.Decision{}
	}
}

// TestFailedAppendLeavesSeqAndJournalIntact: an append fails where its
// flush does. A flush whose write fails before any byte landed changes
// neither the sequence counter nor the file, keeps the record pending, and
// lets later appends continue densely; the retried flush lands all of them.
func TestFailedAppendLeavesSeqAndJournalIntact(t *testing.T) {
	mem := vfs.NewMemFS()
	ffs := vfs.NewFaultFS(mem, nil)
	j, err := OpenJournalBufferedFS(ffs, "wal")
	if err != nil {
		t.Fatal(err)
	}
	stage(t, j, "a", 1)
	before := flushed(t, j, mem)

	stage(t, j, "b", 2)
	ffs.SetScript(failWrites(os.ErrClosed, 0))
	if err := j.Flush(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("flush through failing writes: %v", err)
	}
	if j.Seq() != 2 {
		t.Fatalf("failed flush changed Seq: %d", j.Seq())
	}
	if data, _ := vfs.ReadFile(mem, "wal"); !bytes.Equal(data, before) {
		t.Fatalf("failed flush changed the file: %q", data)
	}

	ffs.SetScript(nil)
	stage(t, j, "c", 3)
	recs, err := loadAll(t, flushed(t, j, mem))
	if err != nil {
		t.Fatalf("journal unreadable after failed flush: %v", err)
	}
	if len(recs) != 3 || recs[0].Op != "a" || recs[1].Op != "b" || recs[2].Op != "c" || recs[2].Seq != 3 {
		t.Fatalf("records = %+v", recs)
	}
}

// TestFailedAppendTruncatesPartialWrite: a short write on a real file must
// not leave fragment bytes for the record's second attempt to land behind.
func TestFailedAppendTruncatesPartialWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	ffs := vfs.NewFaultFS(vfs.OS(), nil)
	j, err := OpenJournalBufferedFS(ffs, path)
	if err != nil {
		t.Fatal(err)
	}
	stage(t, j, "a", 1)
	intact := int64(len(flushed(t, j, ffs)))

	stage(t, j, "b", 2)
	ffs.SetScript(failWrites(os.ErrClosed, 12))
	if err := j.Flush(); err == nil {
		t.Fatal("partial write must error")
	}
	if st, err := os.Stat(path); err != nil || st.Size() != intact+12 {
		t.Fatalf("the fault left %v bytes (%v), want the %d-byte fragment after %d", st.Size(), err, 12, intact)
	}
	ffs.SetScript(nil)
	if err := j.Close(); err != nil { // Close repairs the tail like Flush does
		t.Fatal(err)
	}
	recs, _, err := LoadJournalSuffixFS(vfs.OS(), path, 0)
	if err != nil {
		t.Fatalf("journal corrupt after partial write: %v", err)
	}
	if len(recs) != 2 || recs[1].Op != "b" || recs[1].Seq != 2 {
		t.Fatalf("records: %+v", recs)
	}
}

// TestTornFlushRollsBackAndRetries: a torn write mid-flush (ENOSPC after
// a few bytes of the batch landed) leaves the sequence counter and the
// pending batch alone, and the retried flush rolls the physical tail back
// to the pre-batch offset and lands the identical lines — no gap, no
// duplicate, no interleaved fragment.
func TestTornFlushRollsBackAndRetries(t *testing.T) {
	mem := vfs.NewMemFS()
	ffs := vfs.NewFaultFS(mem, nil)
	j, err := OpenJournalBufferedFS(ffs, "j")
	if err != nil {
		t.Fatal(err)
	}
	stage(t, j, "seed", map[string]any{"n": 1})
	seed := flushed(t, j, mem)

	for i, op := range []string{"a", "b", "c"} {
		stage(t, j, op, map[string]any{"n": i + 2})
	}
	ffs.SetScript(failWrites(syscall.ENOSPC, 7))
	if err := j.Flush(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("torn flush: %v, want ENOSPC", err)
	}
	if got := j.Seq(); got != 4 {
		t.Fatalf("seq after failed flush: %d, want 4", got)
	}
	if data, _ := vfs.ReadFile(mem, "j"); len(data) != len(seed)+7 {
		t.Fatalf("file holds %d bytes, want the 7-byte fragment after %d", len(data), len(seed))
	}

	// Space returns; the same batch must land cleanly.
	ffs.SetScript(nil)
	want := string(seed) + `{"seq":2,"op":"a","args":{"n":2}}` + "\n" +
		`{"seq":3,"op":"b","args":{"n":3}}` + "\n" + `{"seq":4,"op":"c","args":{"n":4}}` + "\n"
	if data := flushed(t, j, mem); string(data) != want {
		t.Fatalf("retried flush left\n%q, want\n%q", data, want)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRollbackFailureWedgesUntilHeal: when the repair truncate
// fails too, every further flush must keep failing at the repair (the
// tail is in an unknown state — nothing may be written behind the
// fragment) until the fault is gone and Heal re-verifies the tail, which
// lands the batch that stayed pending.
func TestRollbackFailureWedgesUntilHeal(t *testing.T) {
	mem := vfs.NewMemFS()
	ffs := vfs.NewFaultFS(mem, nil)
	j, err := OpenJournalBufferedFS(ffs, "j")
	if err != nil {
		t.Fatal(err)
	}
	stage(t, j, "seed", map[string]any{"n": 1})
	seed := flushed(t, j, mem)

	stage(t, j, "a", nil)
	stage(t, j, "b", nil)
	writes := 0
	ffs.SetScript(func(n int64, op vfs.OpRef) vfs.Decision {
		switch op.Kind {
		case vfs.OpWrite:
			writes++
			return vfs.Decision{Err: syscall.ENOSPC, TornPrefix: 3}
		case vfs.OpTruncate:
			return vfs.Decision{Err: syscall.ENOSPC}
		}
		return vfs.Decision{}
	})
	for attempt := 1; attempt <= 3; attempt++ {
		if err := j.Flush(); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("flush %d: %v, want ENOSPC", attempt, err)
		}
	}
	if data, _ := vfs.ReadFile(mem, "j"); writes != 1 || len(data) != len(seed)+3 {
		t.Fatalf("%d writes reached the file, which holds %d bytes: only the first, torn one may (%d)", writes, len(data), len(seed)+3)
	}

	ffs.SetScript(nil)
	if err := j.Heal(); err != nil {
		t.Fatalf("heal: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := LoadJournalSuffixFS(mem, "j", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[1].Op != "a" || recs[2].Op != "b" || recs[2].Seq != 3 {
		t.Fatalf("journal holds %+v, want seed, a, b", recs)
	}
}
