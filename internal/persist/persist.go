// Package persist implements durable command journaling for the ADEPT2
// runtime: every state-changing command (deploy, instance creation,
// activity completion, ad-hoc change, schema evolution) is appended to a
// newline-delimited JSON write-ahead journal. Recovery replays the journal
// through the public API, reconstructing the exact engine state — the
// substitution for the paper prototype's RDBMS-backed storage layer.
//
// Durability. An append encodes its record into the journal's in-memory
// pending buffer and touches nothing else; Flush lands the buffer with one
// write and one fsync, and a record is durable once the Flush covering it
// returned nil (the shard's durable.Committer drives it, one Flush per
// batch of concurrent appends). A failed Flush keeps the encoded records:
// the journal remembers the last byte offset a successful fsync covered,
// and the next Flush first truncates the physical tail back to it (and
// re-verifies the size) before rewriting the pending bytes and fsyncing
// again — the retry never relies on the kernel still holding pages a
// failed fsync may have dropped. Heal is that retry over a reopened file,
// refusing a file that shrank below the durable offset. Close writes what
// is still pending without an fsync and closes the file: whoever needs the
// records durable calls Flush first.
//
// All file access goes through internal/vfs, so fault-injection and
// crash-simulation backends can stand in for the OS in tests.
//
// Compaction. A journal normally starts at sequence number 1. After
// checkpointing (internal/durable), the prefix already covered by a
// snapshot may be dropped: a compacted journal starts at an arbitrary
// sequence number and must stay contiguous from its first record. Readers
// accept such journals; recovery is then only possible through a snapshot
// whose sequence number reaches the record before the journal's first (the
// facade enforces this — see adept2.Open).
package persist

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"
	"sync/atomic"

	"adept2/internal/jsonx"
	"adept2/internal/vfs"
)

// Record is one journaled command, one line of the journal:
// {"seq":N,"epoch":E,"op":"...","args":...}. The epoch is present only
// on sharded data records (a missing one is zero), and Seq is the first
// member so the fast sequence probe (quickSeq) reads it without a decode.
type Record struct {
	// Seq is the journal sequence number (1-based).
	Seq int `json:"seq"`
	// Epoch references the control-log sequence number the command was
	// issued under (sharded journals only; see internal/durable/sharded).
	// Zero — and omitted on the wire — for unsharded journals and for
	// control-shard records, keeping single-journal layouts byte-
	// compatible with the pre-epoch format.
	Epoch int `json:"epoch,omitempty"`
	// Op names the command (facade-defined, e.g. "deploy", "complete").
	Op string `json:"op"`
	// Args carries the command arguments.
	Args json.RawMessage `json:"args"`
}

// Journal is an append-only command log. It is safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	fsys vfs.FS
	path string
	file vfs.File
	size int64 // the tail-repair floor: the repaired size at open plus every flushed byte

	// seq is the last appended sequence number. Appends store it under mu;
	// Seq loads it without mu, so a reader never waits behind a Flush,
	// which holds mu across its fsync.
	seq atomic.Int64

	// Encoded records accumulate here until Flush; a failed flush keeps
	// them, making the flush retryable.
	pending bytes.Buffer
	dirty   bool // the physical tail may exceed size (failed write or fsync)

	// Append serializes into per-journal buffers (guarded by mu) instead
	// of allocating fresh ones per record; the args encoder is lazily
	// bound to its buffer on first use.
	lineBuf []byte
	argsBuf bytes.Buffer
	argsEnc *json.Encoder
}

// OpenJournalBufferedFS opens (or creates) a journal file in append mode,
// repairing its tail. If the file already holds records, new sequence
// numbers continue after the highest existing one. Appends land in a
// user-space buffer: records become durable only when Flush is called.
func OpenJournalBufferedFS(fsys vfs.FS, path string) (*Journal, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open journal: %w", err)
	}
	// Only the sequence numbers are needed here; skip decoding records.
	_, tail, err := scanRecords(f, int(^uint(0)>>1))
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := repairTail(f, tail); err != nil {
		f.Close()
		return nil, err
	}
	return newFileJournal(fsys, path, f, tail.LastSeq), nil
}

// newFileJournal wires a Journal over an already-positioned append fd.
func newFileJournal(fsys vfs.FS, path string, f vfs.File, lastSeq int) *Journal {
	j := &Journal{fsys: fsys, path: path, file: f}
	j.seq.Store(int64(lastSeq))
	if st, err := f.Stat(); err == nil {
		j.size = st.Size()
	}
	return j
}

// repairTail makes the physical end of the journal append-safe: torn or
// corrupt trailing bytes past the last intact record are truncated, and a
// final record that lost its newline terminator gets one, so the next
// append can never concatenate onto damaged data (which would turn a
// tolerated torn tail into unrecoverable mid-file corruption).
func repairTail(f vfs.File, tail TailInfo) error {
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("persist: repair tail: %w", err)
	}
	if st.Size() > tail.ValidSize {
		if err := f.Truncate(tail.ValidSize); err != nil {
			return fmt.Errorf("persist: truncate torn tail: %w", err)
		}
	}
	if tail.OpenTail {
		if _, err := f.Write([]byte("\n")); err != nil {
			return fmt.Errorf("persist: terminate open tail: %w", err)
		}
	}
	return nil
}

// argsAppender is args that append their own JSON, byte for byte what
// encoding/json writes for them where both succeed, and nil on failure: a
// flat command's wire form.
type argsAppender interface {
	AppendJSON(b []byte) ([]byte, error)
}

// encodeLocked writes one record's line into lineBuf (caller holds mu).
// The line is json.Marshal(Record{seq, epoch, op, args}) plus the newline
// terminator, byte for byte, written by hand so that no Record is boxed
// per line. An argsAppender appends itself in place; any other args (a
// control record, a change-op carrier, a RawMessage) go through the
// encoder, whose compact, HTML-escaped output is what encoding/json emits
// for a RawMessage field.
func (j *Journal) encodeLocked(seq, epoch int, op string, args any) error {
	b := append(j.lineBuf[:0], `{"seq":`...)
	b = strconv.AppendInt(b, int64(seq), 10)
	if epoch != 0 {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendInt(b, int64(epoch), 10)
	}
	b = append(b, `,"op":`...)
	b = jsonx.AppendString(b, op)
	b = append(b, `,"args":`...)
	if a, ok := args.(argsAppender); ok {
		out, err := a.AppendJSON(b)
		if err != nil {
			return fmt.Errorf("persist: marshal %s args: %w", op, err)
		}
		b = out
	} else {
		if j.argsEnc == nil {
			j.argsEnc = json.NewEncoder(&j.argsBuf)
		}
		j.argsBuf.Reset()
		if err := j.argsEnc.Encode(args); err != nil {
			return fmt.Errorf("persist: marshal %s args: %w", op, err)
		}
		blob := j.argsBuf.Bytes()
		b = append(b, blob[:len(blob)-1]...) // without the encoder's trailing newline
	}
	j.lineBuf = append(b, '}', '\n')
	return nil
}

// errSeqExhausted refuses an append that no sequence number is left for:
// past math.MaxInt the counter would wrap negative and the record read as
// a gap.
var errSeqExhausted = errors.New("persist: append: the journal's sequence numbers are exhausted")

// AppendRecord stages one command in the pending buffer and returns the
// sequence number it received; the record is durable after the next
// successful Flush. epoch is the control-log sequence number a sharded
// data record was issued under (0 is omitted from the encoding). The
// append touches only memory: it fails only when the args do not encode
// or no sequence number is left, and then leaves the journal as it was.
func (j *Journal) AppendRecord(op string, epoch int, args any) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	seq := int(j.seq.Load())
	if seq == math.MaxInt {
		return 0, errSeqExhausted
	}
	if err := j.encodeLocked(seq+1, epoch, op, args); err != nil {
		return 0, err
	}
	j.pending.Write(j.lineBuf)
	j.seq.Store(int64(seq + 1))
	return seq + 1, nil
}

// Flush makes every previously appended record durable: it repairs the
// physical tail if a previous flush failed (truncate to the last
// fsync-covered offset, re-verify), writes the pending records, and
// fsyncs. A failed Flush keeps the pending records — the next Flush (or
// Heal) retries from a verified tail, so transient I/O errors do not
// poison the journal.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushLocked()
}

func (j *Journal) flushLocked() error {
	if j.dirty {
		// A previous flush failed after (possibly) emitting bytes: the
		// physical tail is unknown. Truncate back to the last offset a
		// successful fsync covered and verify before re-appending.
		if err := j.file.Truncate(j.size); err != nil {
			return fmt.Errorf("persist: flush: repair tail: %w", err)
		}
		if st, err := j.file.Stat(); err != nil {
			return fmt.Errorf("persist: flush: verify tail: %w", err)
		} else if st.Size() != j.size {
			return fmt.Errorf("persist: flush: tail repair left %d bytes, want %d", st.Size(), j.size)
		}
		j.dirty = false
	}
	if j.pending.Len() > 0 {
		if _, err := j.file.Write(j.pending.Bytes()); err != nil {
			j.dirty = true
			return fmt.Errorf("persist: flush: %w", err)
		}
	}
	if err := j.file.Sync(); err != nil {
		// The kernel may have dropped the just-written pages (fsync
		// gate): mark the tail dirty so the retry rewrites them from
		// the pending buffer instead of trusting the page cache.
		j.dirty = true
		return fmt.Errorf("persist: fsync: %w", err)
	}
	j.size += int64(j.pending.Len())
	j.pending.Reset()
	return nil
}

// Heal re-establishes a writable journal after flush failures: it
// re-opens the backing file, verifies the physical size against the
// durable offset (refusing when synced bytes vanished — that is data
// loss, not a transient fault), truncates any unfsynced tail, swaps the
// file handle, and flushes the retained pending records. On success the
// journal is fully durable again.
func (j *Journal) Heal() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	f, err := j.fsys.OpenFile(j.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: heal: reopen: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("persist: heal: %w", err)
	}
	if st.Size() < j.size {
		f.Close()
		return fmt.Errorf("persist: heal: journal shrank to %d bytes below the durable offset %d: refusing", st.Size(), j.size)
	}
	if st.Size() > j.size {
		if err := f.Truncate(j.size); err != nil {
			f.Close()
			return fmt.Errorf("persist: heal: repair tail: %w", err)
		}
	}
	_ = j.file.Close()
	j.file = f
	j.dirty = false
	return j.flushLocked()
}

// Seq returns the sequence number of the last appended record (buffered
// records count — durability is Flush's business). It takes no lock, so
// it answers while a Flush holds the journal across its fsync.
func (j *Journal) Seq() int { return int(j.seq.Load()) }

// Close writes out pending records without an fsync (a caller that needs
// them durable calls Flush first) and closes the file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.pending.Len() > 0 || j.dirty {
		if j.dirty {
			if err := j.file.Truncate(j.size); err != nil {
				j.file.Close()
				return fmt.Errorf("persist: flush on close: repair tail: %w", err)
			}
			j.dirty = false
		}
		if _, err := j.file.Write(j.pending.Bytes()); err != nil {
			j.file.Close()
			return fmt.Errorf("persist: flush on close: %w", err)
		}
		j.size += int64(j.pending.Len())
		j.pending.Reset()
	}
	return j.file.Close()
}

// TailInfo describes the boundaries and physical integrity of a scanned
// journal: the first and last intact sequence numbers (0, 0 when empty or
// missing), how many leading bytes hold intact records (a torn or corrupt
// tail lies beyond ValidSize), whether the final intact record lost its
// newline terminator, and the offset of the line holding the first record
// the scan returned (0 when it returned none).
type TailInfo struct {
	FirstSeq    int
	LastSeq     int
	ValidSize   int64
	OpenTail    bool
	SuffixStart int64
}

// ResumeJournalFS opens a journal whose scan result the caller already
// holds (from LoadJournalSuffixFS), skipping the re-read
// OpenJournalBufferedFS would perform and repairing the physical tail
// exactly like it does.
func ResumeJournalFS(fsys vfs.FS, path string, tail TailInfo) (*Journal, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open journal: %w", err)
	}
	if err := repairTail(f, tail); err != nil {
		f.Close()
		return nil, err
	}
	return newFileJournal(fsys, path, f, tail.LastSeq), nil
}

// LoadJournalSuffixFS scans the journal once and fully decodes only the
// records with Seq > afterSeq — the suffix a snapshot recovery replays;
// afterSeq 0 loads a whole journal, and a missing file is an empty one.
// Records at or before afterSeq are verified for contiguity via a fast
// sequence-number probe but never materialized, so recovering a long
// journal from a recent snapshot does not pay for decoding its history.
// A torn trailing line (a crash mid-write) is tolerated and discarded;
// corruption in the middle of the journal is an error, and a compacted
// journal (first sequence number > 1) must stay contiguous. The returned
// TailInfo feeds ResumeJournalFS's tail repair.
func LoadJournalSuffixFS(fsys vfs.FS, path string, afterSeq int) ([]Record, TailInfo, error) {
	f, err := vfs.Open(fsys, path)
	if os.IsNotExist(err) {
		return nil, TailInfo{}, nil
	}
	if err != nil {
		return nil, TailInfo{}, fmt.Errorf("persist: load journal: %w", err)
	}
	defer f.Close()
	return scanRecords(f, afterSeq)
}

// quickSeq extracts the sequence number from a journal line without a
// full decode. The encoder always emits {"seq":N,... first (fixed struct
// field order), so a miss only happens on hand-edited or torn lines —
// those fall back to the full decoder. N is read as the decoder reads it
// or not at all: digits past an int, or a leading zero JSON does not
// allow, make the line not plain, and the full decode judges it.
func quickSeq(line []byte) (int, bool) {
	const prefix = `{"seq":`
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return 0, false
	}
	end := len(prefix)
	for end < len(line) && line[end] >= '0' && line[end] <= '9' {
		end++
	}
	digits := line[len(prefix):end]
	if end == len(line) || (line[end] != ',' && line[end] != '}') || len(digits) > 1 && digits[0] == '0' {
		return 0, false
	}
	n, ok := jsonx.Int(digits)
	if !ok || int64(int(n)) != n {
		return 0, false
	}
	return int(n), true
}

// scanRecords is the shared journal scanner: it validates sequence
// contiguity for every line, materializes only records with Seq >
// afterSeq (the fast quickSeq probe skips decoding the rest), tolerates a
// torn or corrupt final line, and tracks the physical extent of the
// intact prefix for tail repair.
func scanRecords(r io.Reader, afterSeq int) ([]Record, TailInfo, error) {
	var (
		recs       []Record
		tail       TailInfo
		lineErr    error // candidate torn-tail error, fatal if more data follows
		offset     int64 // bytes consumed including the current line
		advance    int   // bytes the splitter consumed for the current token
		terminated bool  // the consumed bytes end in the newline
	)
	// A line is as long as the record the journal wrote: no limit.
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), math.MaxInt)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		advance = adv
		// A token shorter than the advance does not prove a newline: at
		// EOF ScanLines also drops a trailing \r that no \n follows (a
		// CRLF journal cut between its two terminator bytes), and that
		// line is an open tail the next append must not land on.
		terminated = adv > 0 && data[adv-1] == '\n'
		return adv, tok, err
	})
	lineNo := 0
	for sc.Scan() {
		lineNo++
		offset += int64(advance)
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			// A blank line extends the intact prefix only while no corrupt
			// line is pending: past a torn record, everything belongs to
			// the damage and must fall to the tail repair's truncation.
			if terminated && lineErr == nil {
				tail.ValidSize = offset
			}
			continue
		}
		if lineErr != nil {
			// A malformed line followed by more data is real corruption.
			return nil, TailInfo{}, lineErr
		}
		seq, quick := quickSeq(line)
		// An unterminated line is a torn-tail candidate: the sequence
		// probe alone cannot tell a complete record from a truncated one,
		// so it always takes the full decode.
		if !quick || !terminated || seq > afterSeq {
			var rec Record
			err := json.Unmarshal(line, &rec)
			if err == nil && quick && rec.Seq != seq {
				// A repeated or case-folded key: the line must not carry one
				// number when probed and another when decoded.
				err = fmt.Errorf("seq reads %d, decodes to %d", seq, rec.Seq)
			}
			if err != nil {
				// Possibly a torn final write; decide when we see whether
				// more lines follow.
				lineErr = fmt.Errorf("persist: corrupt record at line %d: %w", lineNo, err)
				continue
			}
			seq = rec.Seq
			if err := checkSeq(seq, tail.LastSeq, lineNo); err != nil {
				return nil, TailInfo{}, err
			}
			if seq > afterSeq {
				if len(recs) == 0 {
					tail.SuffixStart = offset - int64(advance)
				}
				recs = append(recs, rec)
			}
		} else if err := checkSeq(seq, tail.LastSeq, lineNo); err != nil {
			return nil, TailInfo{}, err
		}
		if tail.FirstSeq == 0 {
			tail.FirstSeq = seq
		}
		tail.LastSeq = seq
		tail.ValidSize = offset
		tail.OpenTail = !terminated
	}
	if err := sc.Err(); err != nil {
		return nil, TailInfo{}, fmt.Errorf("persist: read journal: %w", err)
	}
	return recs, tail, nil
}

// checkSeq enforces contiguity relative to the previous record: a
// compacted journal starts past 1 but must not skip within itself.
func checkSeq(seq, last, lineNo int) error {
	if last > 0 {
		if want := last + 1; seq != want {
			return fmt.Errorf("persist: journal gap at line %d: seq %d, want %d", lineNo, seq, want)
		}
	} else if seq < 1 {
		return fmt.Errorf("persist: invalid seq %d at line %d", seq, lineNo)
	}
	return nil
}
