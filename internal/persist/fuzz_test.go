package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"adept2/internal/vfs"
)

// FuzzAppendRecord is the disk side's first fuzz target: the journal
// writes its lines by hand, so for any sequence number, epoch, op and args
// the line it appends must be json.Marshal of the Record plus the newline,
// byte for byte — HTML-escaped <, > and &, invalid UTF-8 replaced, U+2028
// and U+2029 escaped, args compacted — and LoadJournalSuffixFS must read the
// same record back. Where encoding/json refuses the args the append must
// refuse too and leave the journal as it was; where the scanner refuses
// the reference line (a sequence number below 1) it must refuse this one.
func FuzzAppendRecord(f *testing.F) {
	// testdata/fuzz/FuzzAppendRecord holds one line per registry op and
	// the cases a hand-written line could get wrong.
	f.Add(17, 3, "create", `{"type":"online_order","version":1,"id":"inst-000001"}`)
	f.Fuzz(func(t *testing.T, seq, epoch int, op, args string) {
		if seq-1 > seq {
			t.Skip("no sequence number precedes the minimum int")
		}
		fsys := vfs.NewMemFS()
		j, err := OpenJournalBufferedFS(fsys, "wal")
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		j.seq.Store(int64(seq - 1)) // as if resumed behind seq-1

		want, wantErr := json.Marshal(Record{Seq: seq, Epoch: epoch, Op: op, Args: json.RawMessage(args)})
		got, gotErr := j.AppendRecord(op, epoch, json.RawMessage(args))
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("json.Marshal: %v, AppendRecord: %v", wantErr, gotErr)
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		line, err := vfs.ReadFile(fsys, "wal")
		if err != nil {
			t.Fatal(err)
		}
		if wantErr != nil {
			if len(line) != 0 || j.Seq() != seq-1 {
				t.Fatalf("refused append left %q behind at seq %d", line, j.Seq())
			}
			return
		}
		if got != seq || !bytes.Equal(line, append(want, '\n')) {
			t.Fatalf("seq %d, line\n%q, want seq %d, line\n%q", got, line, seq, append(want, '\n'))
		}

		var ref Record
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatalf("reference line does not decode: %v", err)
		}
		recs, tail, err := LoadJournalSuffixFS(fsys, "wal", seq-1)
		if seq < 1 {
			if err == nil {
				t.Fatalf("scanner accepted seq %d: %+v", seq, recs)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || !reflect.DeepEqual(recs[0], ref) {
			t.Fatalf("read back %+v, want %+v", recs, ref)
		}
		if tail.FirstSeq != seq || tail.LastSeq != seq || tail.ValidSize != int64(len(line)) || tail.OpenTail {
			t.Fatalf("tail %+v over one %d-byte line at seq %d", tail, len(line), seq)
		}
	})
}

// FuzzScanAndRepair is the target for the bytes a disk can hand back: for
// any file content and any afterSeq the scanner either refuses the file or
// returns records that are contiguous, all above afterSeq and end at the
// reported tail, inside the file; and then the path every Open takes —
// resume on that tail (the repair), one append, Flush, Close — succeeds
// and a second scan reads the same records plus the new one from a file
// that is intact to its last byte. A repair that loses a record the first
// scan returned, or lets the append land where the next scan cannot read
// it, fails here. The one append that may fail is the one after the
// maximum int, and only by saying that no sequence number is left.
func FuzzScanAndRepair(f *testing.F) {
	// testdata/fuzz/FuzzScanAndRepair holds the tail shapes the repair
	// knows (torn, open, CRLF, cut between \r and \n, blank lines past a
	// torn record) and the files the scanner refuses or only probes.
	f.Add([]byte(`{"seq":1,"op":"a","args":null}`+"\n"), 0)
	f.Fuzz(func(t *testing.T, file []byte, afterSeq int) {
		fsys := vfs.NewMemFS()
		putFile(t, fsys, "wal", file)

		recs, tail, err := LoadJournalSuffixFS(fsys, "wal", afterSeq)
		if err != nil {
			return // refused
		}
		checkSuffix(t, recs, tail, afterSeq)
		if tail.ValidSize < 0 || tail.ValidSize > int64(len(file)) {
			t.Fatalf("tail %+v over a %d-byte file", tail, len(file))
		}
		if len(recs) > 0 {
			// The bytes from SuffixStart to ValidSize are the returned records'
			// lines: alone in a file, they read back as those records.
			putFile(t, fsys, "suffix", file[tail.SuffixStart:tail.ValidSize])
			if cut, _, err := LoadJournalSuffixFS(fsys, "suffix", 0); err != nil || !reflect.DeepEqual(cut, recs) {
				t.Fatalf("suffix at %d reads %+v, %v; want %+v", tail.SuffixStart, cut, err, recs)
			}
		}

		j, err := ResumeJournalFS(fsys, "wal", tail)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := j.AppendRecord("fuzz", 0, nil)
		if tail.LastSeq == math.MaxInt {
			if !errors.Is(err, errSeqExhausted) || j.Seq() != tail.LastSeq {
				t.Fatalf("append after the maximum int: seq %d, %v; the journal is at %d", seq, err, j.Seq())
			}
			return
		}
		if err != nil || seq != tail.LastSeq+1 {
			t.Fatalf("append after %+v: seq %d, %v", tail, seq, err)
		}
		repaired := flushed(t, j, fsys)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		want := tail
		want.LastSeq, want.ValidSize, want.OpenTail = seq, int64(len(repaired)), false
		if want.FirstSeq == 0 {
			want.FirstSeq = seq
		}
		if seq > afterSeq {
			if len(recs) == 0 { // the suffix starts at the appended line
				want.SuffixStart = int64(bytes.LastIndexByte(repaired[:len(repaired)-1], '\n') + 1)
			}
			recs = append(recs, Record{Seq: seq, Op: "fuzz", Args: json.RawMessage("null")})
		}
		again, tail2, err := LoadJournalSuffixFS(fsys, "wal", afterSeq)
		if err != nil {
			t.Fatalf("scan after repair and append: %v\nfile: %q", err, repaired)
		}
		if tail2 != want || !reflect.DeepEqual(again, recs) {
			t.Fatalf("after repair and append: tail %+v, records %+v\nwant tail %+v, records %+v\nfile: %q",
				tail2, again, want, recs, repaired)
		}
	})
}

// checkSuffix holds a scan result to its contract: contiguous records, all
// above afterSeq, reaching the tail's last sequence number from the first
// one above afterSeq the journal holds.
func checkSuffix(t *testing.T, recs []Record, tail TailInfo, afterSeq int) {
	t.Helper()
	if tail.FirstSeq > tail.LastSeq || tail.FirstSeq < 0 || (tail.FirstSeq == 0) != (tail.LastSeq == 0) {
		t.Fatalf("tail %+v", tail)
	}
	if tail.LastSeq == 0 || afterSeq >= tail.LastSeq {
		if len(recs) != 0 {
			t.Fatalf("%d records above %d from a journal ending at %d", len(recs), afterSeq, tail.LastSeq)
		}
		return
	}
	first := max(tail.FirstSeq, afterSeq+1)
	if len(recs) != tail.LastSeq-first+1 {
		t.Fatalf("%d records for seq %d..%d", len(recs), first, tail.LastSeq)
	}
	for i, rec := range recs {
		if rec.Seq != first+i {
			t.Fatalf("record %d has seq %d, want %d", i, rec.Seq, first+i)
		}
	}
}
