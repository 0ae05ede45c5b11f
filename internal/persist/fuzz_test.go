package persist

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"adept2/internal/vfs"
)

// FuzzAppendRecord is the disk side's first fuzz target: the journal
// writes its lines by hand, so for any sequence number, epoch, op and args
// the line it appends must be json.Marshal of the Record plus the newline,
// byte for byte — HTML-escaped <, > and &, invalid UTF-8 replaced, U+2028
// and U+2029 escaped, args compacted — and LoadJournalSuffix must read the
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
		j.seq = seq - 1 // as if resumed behind seq-1

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
