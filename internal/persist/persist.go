// Package persist implements durable command journaling for the ADEPT2
// runtime: every state-changing command (deploy, instance creation,
// activity completion, ad-hoc change, schema evolution) is appended to a
// newline-delimited JSON write-ahead journal. Recovery replays the journal
// through the public API, reconstructing the exact engine state — the
// substitution for the paper prototype's RDBMS-backed storage layer.
//
// Durability modes. Production opens every journal buffered
// (sharded.OpenWAL, behind adept2.Open): appends land in an in-memory
// pending buffer and the shard's durable.Committer drives a shared Flush
// (one write + one fsync per *batch* of concurrent appends). A file-backed
// journal opened unbuffered (OpenJournal) instead fsyncs after every
// Append; no production append goes through it — VerifyLayout opens one
// only to repair a tail, and this package's tests run it. In both modes a
// record is only considered durable after the fsync covering it returned.
//
// Failure handling. The pending buffer makes a failed flush retryable: the
// encoded records stay in memory, the journal remembers the last byte
// offset a successful fsync covered, and the next Flush first repairs the
// physical tail (truncating whatever a torn write or an unfsynced write
// left behind, re-verifying the size) before re-appending the pending
// bytes and fsyncing again. This sidesteps the fsync-gate problem — the
// retry never relies on the kernel still holding pages a failed fsync may
// have dropped, because it rewrites them from user space.
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
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"

	"adept2/internal/jsonx"
	"adept2/internal/vfs"
)

// Record is one journaled command. The record format is versioned by
// field presence, not an explicit tag: v1 records (through PR 3) carry
// seq/op/args; v2 records add the optional epoch reference for sharded
// journals. Decoders accept both — a missing epoch is zero — and Seq
// stays the first encoded field so the fast sequence probe (quickSeq)
// works on either version.
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
	mu     sync.Mutex
	w      io.Writer // unbuffered write target (the file itself when file-backed)
	fsys   vfs.FS    // non-nil when backed by a file
	path   string
	file   vfs.File
	seq    int
	size   int64 // bytes covered by durable-intent writes (the tail-repair floor)
	sync   bool
	failed bool // an unrepairable write error; the journal refuses appends

	// Buffered (group-commit) journals accumulate encoded records here
	// until Flush; a failed flush keeps them, making the flush retryable.
	buffered bool
	pending  bytes.Buffer
	dirty    bool // the physical tail may exceed size (failed write or fsync)

	// Append serializes into per-journal buffers (guarded by mu) instead
	// of allocating fresh ones per record; the args encoder is lazily
	// bound to its buffer on first use.
	lineBuf []byte
	argsBuf bytes.Buffer
	argsEnc *json.Encoder
}

// NewJournal wraps an arbitrary writer (tests use a bytes.Buffer).
func NewJournal(w io.Writer) *Journal { return &Journal{w: w} }

// OpenJournal opens (or creates) a file-backed journal in append mode. If
// the file already holds records, new sequence numbers continue after the
// highest existing one.
func OpenJournal(path string) (*Journal, error) {
	return OpenJournalFS(vfs.OS(), path)
}

// OpenJournalFS is OpenJournal over an explicit filesystem.
func OpenJournalFS(fsys vfs.FS, path string) (*Journal, error) {
	return openJournal(fsys, path, false)
}

// OpenJournalBuffered opens a file-backed journal whose appends land in a
// user-space buffer and are NOT individually fsynced: records become
// durable only when Flush is called. The group-commit committer
// (internal/durable) uses this mode to turn many concurrent appends into
// one write plus one fsync per batch.
func OpenJournalBuffered(path string) (*Journal, error) {
	return openJournal(vfs.OS(), path, true)
}

// OpenJournalBufferedFS is OpenJournalBuffered over an explicit
// filesystem.
func OpenJournalBufferedFS(fsys vfs.FS, path string) (*Journal, error) {
	return openJournal(fsys, path, true)
}

func openJournal(fsys vfs.FS, path string, buffered bool) (*Journal, error) {
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
	return newFileJournal(fsys, path, f, buffered, tail.LastSeq), nil
}

// newFileJournal wires a Journal over an already-positioned append fd.
func newFileJournal(fsys vfs.FS, path string, f vfs.File, buffered bool, lastSeq int) *Journal {
	j := &Journal{w: f, fsys: fsys, path: path, file: f, sync: !buffered, buffered: buffered, seq: lastSeq}
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

// SetSync toggles fsync after every append (default true for file-backed
// journals opened unbuffered; benchmarks disable it).
func (j *Journal) SetSync(on bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sync = on
}

// Path returns the journal's file path ("" for plain-writer journals).
func (j *Journal) Path() string { return j.path }

// Append journals one command. For sync-enabled file journals the record
// is durable when Append returns; buffered journals require a Flush. A
// failed append leaves the journal's sequence counter unchanged, and for
// unbuffered file journals any partially written bytes are truncated
// away, so the caller can retry without leaving a gap or corrupting the
// file. When that self-repair is impossible (plain-writer journal with
// partial bytes emitted, or the truncate itself failed) the journal
// refuses all further appends instead of concatenating onto damaged
// data. Buffered appends touch only memory and cannot fail past
// encoding.
func (j *Journal) Append(op string, args any) error {
	_, err := j.AppendSeq(op, args)
	return err
}

// AppendSeq is Append returning the sequence number the record received.
func (j *Journal) AppendSeq(op string, args any) (int, error) {
	return j.AppendRecord(op, 0, args)
}

// encodeLocked appends one record's line to lineBuf (caller holds mu).
// The line is json.Marshal(Record{seq, epoch, op, args}) plus the newline
// terminator, byte for byte, written by hand so that no Record is boxed
// per line: the args blob is the encoder's own compact, HTML-escaped
// output, which is what encoding/json emits for a RawMessage field.
func (j *Journal) encodeLocked(seq, epoch int, op string, args any) error {
	if j.argsEnc == nil {
		j.argsEnc = json.NewEncoder(&j.argsBuf)
	}
	j.argsBuf.Reset()
	if err := j.argsEnc.Encode(args); err != nil {
		return fmt.Errorf("persist: marshal %s args: %w", op, err)
	}
	blob := j.argsBuf.Bytes()
	blob = blob[:len(blob)-1] // drop the encoder's trailing newline
	b := append(j.lineBuf, `{"seq":`...)
	b = strconv.AppendInt(b, int64(seq), 10)
	if epoch != 0 {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendInt(b, int64(epoch), 10)
	}
	b = append(b, `,"op":`...)
	b = jsonx.AppendString(b, op)
	b = append(b, `,"args":`...)
	b = append(b, blob...)
	j.lineBuf = append(b, '}', '\n')
	return nil
}

// AppendRecord is AppendSeq with an explicit epoch reference (sharded
// journals tag data records with the control-log sequence number they
// were issued under; epoch 0 is omitted from the encoding).
func (j *Journal) AppendRecord(op string, epoch int, args any) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed {
		return 0, fmt.Errorf("persist: journal failed: a previous append left it in an unknown state")
	}
	j.lineBuf = j.lineBuf[:0]
	if err := j.encodeLocked(j.seq+1, epoch, op, args); err != nil {
		return 0, err
	}
	if err := j.writeLocked(); err != nil {
		return 0, fmt.Errorf("persist: append: %w", err)
	}
	j.seq++
	if j.file != nil && j.sync && !j.buffered {
		if err := j.file.Sync(); err != nil {
			return 0, fmt.Errorf("persist: fsync: %w", err)
		}
	}
	return j.seq, nil
}

// writeLocked lands lineBuf's records: into the pending buffer for
// buffered journals (no I/O, no failure), through to the backing writer
// otherwise, with the rollback semantics Append documents. The sequence
// counter is NOT advanced here.
func (j *Journal) writeLocked() error {
	if j.buffered {
		j.pending.Write(j.lineBuf)
		return nil
	}
	n, err := j.w.Write(j.lineBuf)
	if err != nil {
		// A failed write must not leave partial bytes for the next append
		// to concatenate onto. Roll back the fragment where possible.
		switch {
		case j.file != nil:
			if terr := j.file.Truncate(j.size); terr != nil {
				j.failed = true
			}
		case n > 0:
			// Plain writer with partial bytes emitted: unrepairable.
			j.failed = true
		}
		return err
	}
	j.size += int64(len(j.lineBuf))
	return nil
}

// Pending is one not-yet-appended record for AppendMulti.
type Pending struct {
	// Op names the command.
	Op string
	// Epoch is the control-log reference (0 omitted on the wire).
	Epoch int
	// Args carries the command arguments (encoded at append time).
	Args any
}

// AppendMulti journals a batch of records under one lock acquisition and
// one write (plus, for sync-enabled journals, one fsync for the whole
// batch) — the throughput primitive behind SubmitBatch. Sequence numbers
// are assigned contiguously in slice order; the last one is returned. The
// append is all-or-nothing: an encoding failure before any byte is
// written leaves the journal untouched, and a failed write rolls back
// exactly like Append.
func (j *Journal) AppendMulti(recs []Pending) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.failed {
		return 0, fmt.Errorf("persist: journal failed: a previous append left it in an unknown state")
	}
	if len(recs) == 0 {
		return j.seq, nil
	}
	j.lineBuf = j.lineBuf[:0]
	for i, p := range recs {
		if err := j.encodeLocked(j.seq+1+i, p.Epoch, p.Op, p.Args); err != nil {
			return 0, err
		}
	}
	if err := j.writeLocked(); err != nil {
		return 0, fmt.Errorf("persist: append batch: %w", err)
	}
	j.seq += len(recs)
	if j.file != nil && j.sync && !j.buffered {
		if err := j.file.Sync(); err != nil {
			return 0, fmt.Errorf("persist: fsync: %w", err)
		}
	}
	return j.seq, nil
}

// Flush makes every previously appended record durable: for buffered
// journals it repairs the physical tail if a previous flush failed
// (truncate to the last fsync-covered offset, re-verify), writes the
// pending records, and fsyncs; on a sync-enabled journal it degenerates
// to a plain fsync. A failed Flush keeps the pending records — the next
// Flush (or Heal) retries from a verified tail, so transient I/O errors
// do not poison the journal.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushLocked()
}

func (j *Journal) flushLocked() error {
	if j.file == nil {
		return nil
	}
	if j.buffered {
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
	if err := j.file.Sync(); err != nil {
		return fmt.Errorf("persist: fsync: %w", err)
	}
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
	if j.fsys == nil {
		return j.flushLocked()
	}
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
	old := j.file
	if j.w == j.file {
		// Unbuffered file journals write through j.w; keep it pointed at
		// the live handle (tests may have swapped in another writer —
		// those keep theirs).
		j.w = f
	}
	j.file = f
	j.dirty = false
	j.failed = false
	if old != nil {
		_ = old.Close()
	}
	return j.flushLocked()
}

// Seq returns the sequence number of the last appended record (buffered
// records count — durability is Flush's business).
func (j *Journal) Seq() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Close writes out pending records (without forcing an fsync, matching
// the pre-vfs buffered close) and closes a file-backed journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.buffered && (j.pending.Len() > 0 || j.dirty) && j.file != nil {
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
	if j.file != nil {
		return j.file.Close()
	}
	return nil
}

// ReadJournal parses all records from a reader. A trailing partial line
// (torn write after a crash) is tolerated and discarded; corruption in the
// middle of the journal is an error. A compacted journal (first record's
// sequence number > 1) is accepted as long as it stays contiguous.
func ReadJournal(r io.Reader) ([]Record, error) {
	return readAll(r)
}

// LoadJournal reads all records of a journal file. A missing file yields
// an empty journal.
func LoadJournal(path string) ([]Record, error) {
	return LoadJournalFS(vfs.OS(), path)
}

// LoadJournalFS is LoadJournal over an explicit filesystem.
func LoadJournalFS(fsys vfs.FS, path string) ([]Record, error) {
	f, err := vfs.Open(fsys, path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: load journal: %w", err)
	}
	defer f.Close()
	return readAll(f)
}

// TailInfo describes the boundaries and physical integrity of a scanned
// journal: the first and last intact sequence numbers (0, 0 when empty or
// missing), how many leading bytes hold intact records (a torn or corrupt
// tail lies beyond ValidSize), and whether the final intact record lost
// its newline terminator.
type TailInfo struct {
	FirstSeq  int
	LastSeq   int
	ValidSize int64
	OpenTail  bool
}

// ResumeJournal opens a file journal whose scan result the caller already
// holds (from LoadJournalSuffix), skipping the re-read OpenJournal would
// perform and repairing the physical tail exactly like OpenJournal does.
// buffered selects the group-commit mode of OpenJournalBuffered.
func ResumeJournal(path string, tail TailInfo, buffered bool) (*Journal, error) {
	return ResumeJournalFS(vfs.OS(), path, tail, buffered)
}

// ResumeJournalFS is ResumeJournal over an explicit filesystem.
func ResumeJournalFS(fsys vfs.FS, path string, tail TailInfo, buffered bool) (*Journal, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open journal: %w", err)
	}
	if err := repairTail(f, tail); err != nil {
		f.Close()
		return nil, err
	}
	return newFileJournal(fsys, path, f, buffered, tail.LastSeq), nil
}

// LoadJournalSuffix scans the journal once and fully decodes only the
// records with Seq > afterSeq — the suffix a snapshot recovery replays.
// Records at or before afterSeq are verified for contiguity via a fast
// sequence-number probe but never materialized, so recovering a long
// journal from a recent snapshot does not pay for decoding its history.
// Torn trailing lines are tolerated exactly like ReadJournal; the
// returned TailInfo feeds ResumeJournal's tail repair.
func LoadJournalSuffix(path string, afterSeq int) ([]Record, TailInfo, error) {
	return LoadJournalSuffixFS(vfs.OS(), path, afterSeq)
}

// LoadJournalSuffixFS is LoadJournalSuffix over an explicit filesystem.
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
// those fall back to the full decoder.
func quickSeq(line []byte) (int, bool) {
	const prefix = `{"seq":`
	if !bytes.HasPrefix(line, []byte(prefix)) {
		return 0, false
	}
	n, i, digits := 0, len(prefix), false
	for i < len(line) && line[i] >= '0' && line[i] <= '9' {
		n = n*10 + int(line[i]-'0')
		digits = true
		i++
	}
	if !digits || i >= len(line) || (line[i] != ',' && line[i] != '}') {
		return 0, false
	}
	return n, true
}

func readAll(r io.Reader) ([]Record, error) {
	recs, _, err := scanRecords(r, 0)
	return recs, err
}

// scanRecords is the shared journal scanner: it validates sequence
// contiguity for every line, materializes only records with Seq >
// afterSeq (the fast quickSeq probe skips decoding the rest), tolerates a
// torn or corrupt final line, and tracks the physical extent of the
// intact prefix for tail repair.
func scanRecords(r io.Reader, afterSeq int) ([]Record, TailInfo, error) {
	var (
		recs    []Record
		tail    TailInfo
		lineErr error // candidate torn-tail error, fatal if more data follows
		offset  int64 // bytes consumed including the current line
		advance int   // bytes the splitter consumed for the current token
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		advance = adv
		return adv, tok, err
	})
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		terminated := advance > len(raw) // newline (or \r\n) was consumed
		offset += int64(advance)
		line := bytes.TrimSpace(raw)
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
			if err := json.Unmarshal(line, &rec); err != nil {
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

// Applier replays one journaled command; the facade implements it.
type Applier func(op string, args json.RawMessage) error

// Replay feeds every record to the applier in order.
func Replay(recs []Record, apply Applier) error {
	for _, rec := range recs {
		if err := apply(rec.Op, rec.Args); err != nil {
			return fmt.Errorf("persist: replay record %d (%s): %w", rec.Seq, rec.Op, err)
		}
	}
	return nil
}
