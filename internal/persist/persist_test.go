package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adept2/internal/vfs"
)

// memJournal opens a journal named "wal" on a fresh in-memory filesystem.
func memJournal(t testing.TB) (*Journal, *vfs.MemFS) {
	t.Helper()
	mem := vfs.NewMemFS()
	j, err := OpenJournalBufferedFS(mem, "wal")
	if err != nil {
		t.Fatal(err)
	}
	return j, mem
}

// fileJournal opens the journal file at path.
func fileJournal(t testing.TB, path string) *Journal {
	t.Helper()
	j, err := OpenJournalBufferedFS(vfs.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// putFile writes data as the whole content of name.
func putFile(t testing.TB, fsys vfs.FS, name string, data []byte) {
	t.Helper()
	f, err := fsys.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// loadAll reads data back as a whole journal through LoadJournalSuffixFS.
func loadAll(t testing.TB, data []byte) ([]Record, error) {
	t.Helper()
	mem := vfs.NewMemFS()
	putFile(t, mem, "wal", data)
	recs, _, err := LoadJournalSuffixFS(mem, "wal", 0)
	return recs, err
}

// stage appends one record with epoch 0.
func stage(t testing.TB, j *Journal, op string, args any) {
	t.Helper()
	if _, err := j.AppendRecord(op, 0, args); err != nil {
		t.Fatal(err)
	}
}

// flushed flushes the journal and returns the bytes of its file.
func flushed(t testing.TB, j *Journal, fsys vfs.FS) []byte {
	t.Helper()
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := vfs.ReadFile(fsys, j.path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAppendRefusedPastMaxInt: a journal resumed on a tail that ends one
// short of the maximum int has one sequence number left. One record takes
// it, and every append after it is refused with the journal — counter,
// pending bytes, file — as it was.
func TestAppendRefusedPastMaxInt(t *testing.T) {
	mem := vfs.NewMemFS()
	putFile(t, mem, "wal", []byte(fmt.Sprintf(`{"seq":%d,"op":"a","args":null}`+"\n", math.MaxInt-1)))
	_, tail, err := LoadJournalSuffixFS(mem, "wal", 0)
	if err != nil || tail.LastSeq != math.MaxInt-1 {
		t.Fatalf("scan: tail %+v, %v", tail, err)
	}
	j, err := ResumeJournalFS(mem, "wal", tail)
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := j.AppendRecord("b", 0, nil); err != nil || seq != math.MaxInt {
		t.Fatalf("the last sequence number: %d, %v", seq, err)
	}
	full := flushed(t, j, mem)
	if seq, err := j.AppendRecord("c", 0, nil); !errors.Is(err, errSeqExhausted) || seq != 0 {
		t.Fatalf("append past the maximum int: seq %d, %v", seq, err)
	}
	if got := flushed(t, j, mem); j.Seq() != math.MaxInt || !bytes.Equal(got, full) {
		t.Fatalf("a refused append moved the journal: seq %d, file %q", j.Seq(), got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, tail, err := LoadJournalSuffixFS(mem, "wal", 0); err != nil || tail.LastSeq != math.MaxInt {
		t.Fatalf("rescan: tail %+v, %v", tail, err)
	}
}

func TestJournalAppendAndRead(t *testing.T) {
	j, mem := memJournal(t)
	stage(t, j, "create", map[string]any{"type": "order"})
	stage(t, j, "complete", map[string]any{"node": "a"})
	if j.Seq() != 2 {
		t.Fatalf("seq = %d", j.Seq())
	}
	recs, err := loadAll(t, flushed(t, j, mem))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Op != "create" || recs[1].Seq != 2 {
		t.Fatalf("records = %+v", recs)
	}
}

// TestJournalReadsEveryLineItWrites: whatever record an append accepts,
// the scan reads back — here one of 17 MiB, longer than any line buffer
// a scanner starts with — both the suffix load and the reopen, which
// would otherwise acknowledge a record no later Open could read.
func TestJournalReadsEveryLineItWrites(t *testing.T) {
	j, mem := memJournal(t)
	big := strings.Repeat("x", 17<<20)
	stage(t, j, "complete", map[string]string{"out": big})
	stage(t, j, "create", nil)
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, tail, err := LoadJournalSuffixFS(mem, "wal", 0)
	if err != nil || len(recs) != 2 || tail.LastSeq != 2 {
		t.Fatalf("scan: %d records, tail %+v, %v", len(recs), tail, err)
	}
	var args map[string]string
	if err := json.Unmarshal(recs[0].Args, &args); err != nil || args["out"] != big {
		t.Fatalf("the long record reads back as %d bytes of output, %v", len(args["out"]), err)
	}
	j2, err := OpenJournalBufferedFS(mem, "wal")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Seq() != 2 {
		t.Fatalf("reopened at seq %d, want 2", j2.Seq())
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	j, mem := memJournal(t)
	stage(t, j, "create", nil)
	data := append(flushed(t, j, mem), `{"seq":2,"op":"comp`...) // torn write, no newline... then EOF
	recs, err := loadAll(t, data)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
}

func TestJournalRejectsMidCorruption(t *testing.T) {
	data := `{"seq":1,"op":"a","args":null}
garbage
{"seq":2,"op":"b","args":null}
`
	if _, err := loadAll(t, []byte(data)); err == nil {
		t.Fatal("mid-journal corruption must be rejected")
	}
}

func TestJournalRejectsGaps(t *testing.T) {
	data := `{"seq":1,"op":"a","args":null}
{"seq":3,"op":"b","args":null}
`
	if _, err := loadAll(t, []byte(data)); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("expected gap error, got %v", err)
	}
}

// TestProbeReadsNoSeqTheDecoderRefuses: the sequence probe that spares a
// snapshot recovery the decode of its covered prefix reads a number as the
// decoder does or not at all. A sequence number past an int, or written
// with a leading zero, is no JSON the decoder takes, so a journal holding
// one between two good records is corrupt for a full replay and for a
// recovery whose snapshot covers all three alike; a probe that wrapped
// 18446744073709551618 to 2, or read 02 as 2, accepted it for the second.
func TestProbeReadsNoSeqTheDecoderRefuses(t *testing.T) {
	for _, seq := range []string{"18446744073709551618", "9223372036854775810", "02", "0002", "00"} {
		data := `{"seq":1,"op":"a","args":null}
{"seq":` + seq + `,"op":"b","args":null}
{"seq":3,"op":"c","args":null}
`
		mem := vfs.NewMemFS()
		putFile(t, mem, "wal", []byte(data))
		for _, afterSeq := range []int{0, 3} {
			if recs, tail, err := LoadJournalSuffixFS(mem, "wal", afterSeq); err == nil {
				t.Errorf("seq %s after %d: read %+v, tail %+v; want the line refused", seq, afterSeq, recs, tail)
			}
		}
	}
}

// TestAppenderArgsAppendThemselves: args that implement argsAppender are
// written as they append themselves, and a refusal leaves the journal as
// it was.
func TestAppenderArgsAppendThemselves(t *testing.T) {
	j, mem := memJournal(t)
	stage(t, j, "a", appendArgs(`{"x":1}`))
	if _, err := j.AppendRecord("b", 0, appendArgs("")); err == nil {
		t.Fatal("a refusing appender made a record")
	}
	if got, want := string(flushed(t, j, mem)), `{"seq":1,"op":"a","args":{"x":1}}`+"\n"; got != want || j.Seq() != 1 {
		t.Fatalf("journal %q at seq %d, want %q at 1", got, j.Seq(), want)
	}
}

// appendArgs appends itself, or refuses when empty.
type appendArgs string

func (a appendArgs) AppendJSON(b []byte) ([]byte, error) {
	if a == "" {
		return nil, errors.New("refused")
	}
	return append(b, a...), nil
}

func TestFileJournalReopenContinuesSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j := fileJournal(t, path)
	stage(t, j, "a", 1)
	stage(t, j, "b", 2)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := fileJournal(t, path)
	stage(t, j2, "c", 3)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := LoadJournalSuffixFS(vfs.OS(), path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Seq != 3 || recs[2].Op != "c" {
		t.Fatalf("records = %+v", recs)
	}
}

func TestLoadJournalMissingFile(t *testing.T) {
	recs, _, err := LoadJournalSuffixFS(vfs.OS(), filepath.Join(t.TempDir(), "absent.ndjson"), 0)
	if err != nil || recs != nil {
		t.Fatalf("missing file: recs=%v err=%v", recs, err)
	}
}

func TestAppendMarshalsErrors(t *testing.T) {
	j, _ := memJournal(t)
	if _, err := j.AppendRecord("bad", 0, func() {}); err == nil {
		t.Fatal("unmarshalable args must fail")
	}
}

func TestCompactedJournalAccepted(t *testing.T) {
	data := `{"seq":5,"op":"a","args":null}
{"seq":6,"op":"b","args":null}
`
	recs, err := loadAll(t, []byte(data))
	if err != nil {
		t.Fatalf("compacted journal must be readable: %v", err)
	}
	if len(recs) != 2 || recs[0].Seq != 5 {
		t.Fatalf("records = %+v", recs)
	}
	// Gaps within a compacted journal are still rejected.
	bad := `{"seq":5,"op":"a","args":null}
{"seq":7,"op":"b","args":null}
`
	if _, err := loadAll(t, []byte(bad)); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("expected gap error, got %v", err)
	}
}

func TestBufferedJournalFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j := fileJournal(t, path)
	seq, err := j.AppendRecord("a", 0, 1)
	if err != nil || seq != 1 {
		t.Fatalf("seq=%d err=%v", seq, err)
	}
	// Before the flush the record sits in the user-space buffer.
	if recs, _, _ := LoadJournalSuffixFS(vfs.OS(), path, 0); len(recs) != 0 {
		t.Fatalf("buffered record visible before flush: %+v", recs)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := LoadJournalSuffixFS(vfs.OS(), path, 0)
	if err != nil || len(recs) != 1 {
		t.Fatalf("recs=%v err=%v", recs, err)
	}
	// Close flushes any remainder.
	stage(t, j, "b", 2)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if recs, _, _ := LoadJournalSuffixFS(vfs.OS(), path, 0); len(recs) != 2 {
		t.Fatalf("close must flush, got %+v", recs)
	}
}

func TestLoadJournalSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j := fileJournal(t, path)
	for i := 1; i <= 9; i++ {
		stage(t, j, "op", map[string]int{"i": i})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, tail, err := LoadJournalSuffixFS(vfs.OS(), path, 6)
	if err != nil {
		t.Fatal(err)
	}
	if tail.FirstSeq != 1 || tail.LastSeq != 9 || len(recs) != 3 || recs[0].Seq != 7 || recs[2].Seq != 9 {
		t.Fatalf("suffix: tail=%+v recs=%+v", tail, recs)
	}
	if st, _ := os.Stat(path); tail.ValidSize != st.Size() || tail.OpenTail {
		t.Fatalf("intact journal: tail=%+v size=%d", tail, st.Size())
	}
	// afterSeq 0 decodes everything; afterSeq past the tail decodes nothing.
	if recs, _, _ := LoadJournalSuffixFS(vfs.OS(), path, 0); len(recs) != 9 {
		t.Fatalf("full suffix: %d", len(recs))
	}
	if recs, tail, _ := LoadJournalSuffixFS(vfs.OS(), path, 99); len(recs) != 0 || tail.LastSeq != 9 {
		t.Fatalf("empty suffix: %d tail=%+v", len(recs), tail)
	}
	// Missing file: all zeros.
	if recs, tail, err := LoadJournalSuffixFS(vfs.OS(), filepath.Join(t.TempDir(), "absent"), 0); err != nil || recs != nil || tail != (TailInfo{}) {
		t.Fatalf("missing: %v %v %+v", recs, err, tail)
	}

	// Torn tail is tolerated and reported as ending before the garbage;
	// gaps in the skipped prefix are still caught.
	intact, _ := os.Stat(path)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":10,"op":"tor`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, tail, err = LoadJournalSuffixFS(vfs.OS(), path, 6)
	if err != nil || tail.LastSeq != 9 || len(recs) != 3 {
		t.Fatalf("torn tail: recs=%d tail=%+v err=%v", len(recs), tail, err)
	}
	if tail.ValidSize != intact.Size() {
		t.Fatalf("valid size %d should end before the torn bytes (%d)", tail.ValidSize, intact.Size())
	}
	gap := `{"seq":1,"op":"a","args":null}
{"seq":3,"op":"b","args":null}
`
	gapPath := filepath.Join(t.TempDir(), "gap.ndjson")
	if err := os.WriteFile(gapPath, []byte(gap), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadJournalSuffixFS(vfs.OS(), gapPath, 5); err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("prefix gap not detected: %v", err)
	}
}

func TestResumeJournalContinuesSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j, err := ResumeJournalFS(vfs.OS(), path, TailInfo{LastSeq: 41})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := j.AppendRecord("op", 0, nil)
	if err != nil || seq != 42 {
		t.Fatalf("seq=%d err=%v", seq, err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailRepairedBeforeAppend is the crash shape that used to be
// fatal: a torn trailing line survives recovery, and the next append must
// NOT concatenate onto it. Both OpenJournalBufferedFS and ResumeJournalFS
// truncate the damage (and terminate an unterminated final record) before
// appending.
func TestTornTailRepairedBeforeAppend(t *testing.T) {
	mk := func(t *testing.T, tornTail string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "wal.ndjson")
		j := fileJournal(t, path)
		stage(t, j, "a", 1)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(tornTail); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return path
	}
	check := func(t *testing.T, path string) {
		t.Helper()
		recs, _, err := LoadJournalSuffixFS(vfs.OS(), path, 0)
		if err != nil {
			t.Fatalf("journal corrupt after repaired append: %v", err)
		}
		if len(recs) != 2 || recs[1].Seq != 2 || recs[1].Op != "b" {
			t.Fatalf("records: %+v", recs)
		}
	}

	for name, torn := range map[string]string{
		"unterminated":       `{"seq":2,"op":"torn`,
		"terminated-garbage": "garbage-line\n",
	} {
		t.Run("open/"+name, func(t *testing.T) {
			path := mk(t, torn)
			j := fileJournal(t, path)
			stage(t, j, "b", 2)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			check(t, path)
		})
		t.Run("resume/"+name, func(t *testing.T) {
			path := mk(t, torn)
			_, tail, err := LoadJournalSuffixFS(vfs.OS(), path, 0)
			if err != nil {
				t.Fatal(err)
			}
			j, err := ResumeJournalFS(vfs.OS(), path, tail)
			if err != nil {
				t.Fatal(err)
			}
			stage(t, j, "b", 2)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			check(t, path)
		})
	}
}

// TestOpenTailGetsNewline: a crash can persist a complete final record
// whose newline never reached the disk; the record must be kept (it was
// replayed) and the next append must start on a fresh line.
func TestOpenTailGetsNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	if err := os.WriteFile(path, []byte(`{"seq":1,"op":"a","args":null}`), 0o644); err != nil {
		t.Fatal(err) // note: no trailing newline
	}
	_, tail, err := LoadJournalSuffixFS(vfs.OS(), path, 0)
	if err != nil || tail.LastSeq != 1 || !tail.OpenTail {
		t.Fatalf("tail=%+v err=%v", tail, err)
	}
	j, err := ResumeJournalFS(vfs.OS(), path, tail)
	if err != nil {
		t.Fatal(err)
	}
	stage(t, j, "b", 2)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := LoadJournalSuffixFS(vfs.OS(), path, 0)
	if err != nil || len(recs) != 2 || recs[0].Op != "a" || recs[1].Op != "b" {
		t.Fatalf("recs=%+v err=%v", recs, err)
	}
}

// TestCRCutTailKeepsBothRecords: a CRLF journal cut between its two
// terminator bytes ends in a lone \r. That is an open tail: the repair
// must complete the terminator, or the next record lands on record 2's
// line and the following scan drops both as one torn line.
func TestCRCutTailKeepsBothRecords(t *testing.T) {
	mem := vfs.NewMemFS()
	putFile(t, mem, "wal", []byte("{\"seq\":1,\"op\":\"a\",\"args\":null}\r\n{\"seq\":2,\"op\":\"b\",\"args\":null}\r"))
	recs, tail, err := LoadJournalSuffixFS(mem, "wal", 0)
	if err != nil || len(recs) != 2 || tail.LastSeq != 2 || !tail.OpenTail {
		t.Fatalf("before: recs=%+v tail=%+v err=%v", recs, tail, err)
	}
	j, err := ResumeJournalFS(mem, "wal", tail)
	if err != nil {
		t.Fatal(err)
	}
	stage(t, j, "c", 3)
	data := flushed(t, j, mem)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, tail, err = LoadJournalSuffixFS(mem, "wal", 0)
	if err != nil || len(recs) != 3 || recs[1].Op != "b" || recs[2].Op != "c" || tail.LastSeq != 3 {
		t.Fatalf("after: recs=%+v tail=%+v err=%v\nfile: %q", recs, tail, err, data)
	}
	if tail.ValidSize != int64(len(data)) || tail.OpenTail {
		t.Fatalf("tail=%+v over %d bytes", tail, len(data))
	}
}

// TestTornTailFollowedByBlankLineRepaired: a corrupt terminated line plus
// a trailing blank line must be truncated entirely — the blank line must
// not extend the "intact" prefix past the corruption.
func TestTornTailFollowedByBlankLineRepaired(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	if err := os.WriteFile(path, []byte("{\"seq\":1,\"op\":\"a\",\"args\":null}\ngarbage\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j := fileJournal(t, path)
	stage(t, j, "b", 2)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := LoadJournalSuffixFS(vfs.OS(), path, 0)
	if err != nil {
		t.Fatalf("journal corrupt after repair: %v", err)
	}
	if len(recs) != 2 || recs[1].Op != "b" || recs[1].Seq != 2 {
		t.Fatalf("records: %+v", recs)
	}
}

func TestEpochRecordRoundTripAndBackCompat(t *testing.T) {
	j, mem := memJournal(t)
	if _, err := j.AppendRecord("deploy", 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := j.AppendRecord("complete", 1, 2); err != nil {
		t.Fatal(err)
	}
	data := flushed(t, j, mem)
	// Epoch 0 is omitted from the wire format, keeping unsharded journals
	// byte-compatible with pre-epoch records; the seq probe's prefix
	// assumption holds for both forms.
	lines := strings.SplitN(string(data), "\n", 3)
	if strings.Contains(lines[0], "epoch") {
		t.Fatalf("epoch 0 must be omitted: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"epoch":1`) {
		t.Fatalf("epoch missing: %s", lines[1])
	}
	for _, l := range lines[:2] {
		if !strings.HasPrefix(l, `{"seq":`) {
			t.Fatalf("seq must stay the first field for quickSeq: %s", l)
		}
	}
	recs, err := loadAll(t, data)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Epoch != 0 || recs[1].Epoch != 1 {
		t.Fatalf("epochs = %d, %d", recs[0].Epoch, recs[1].Epoch)
	}
	// A pre-epoch (v1) record decodes with epoch 0.
	var rec Record
	if err := json.Unmarshal([]byte(`{"seq":3,"op":"x","args":null}`), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != 0 || rec.Seq != 3 {
		t.Fatalf("v1 decode: %+v", rec)
	}
}
