package durable

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"adept2/internal/persist"
	"adept2/internal/vfs"
)

// containerFormat is the snapshot container version this build writes and
// reads: the SystemState JSON payload, gzip-compressed (it is highly
// repetitive — node IDs, marking vocabularies — so compression is cheap
// and large).
const containerFormat = 2

// snapHeader is the first line of a snapshot file; the payload follows as
// exactly Len bytes with CRC-32 (IEEE) checksum CRC32 over the stored
// (compressed) bytes. RawLen records the uncompressed payload size.
type snapHeader struct {
	Format int    `json:"format"`
	Seq    int    `json:"seq"`
	Len    int    `json:"len"`
	CRC32  uint32 `json:"crc32"`
	RawLen int    `json:"rawLen,omitempty"`
}

// ManifestEntry ties one snapshot file to the journal sequence number it
// covers and the control epoch it was cut at, both parsed from the file
// name — the form in which the global manifest (internal/durable/sharded)
// and a directory listing name a snapshot.
type ManifestEntry struct {
	File  string
	Seq   int
	Epoch int
}

// SnapshotStore reads and writes checkpoint files in one directory.
type SnapshotStore struct {
	fsys vfs.FS
	dir  string

	// cleanupErrs counts failed removals of stale snapshot and temp
	// files. A failed cleanup never fails the checkpoint that triggered
	// it (the new snapshot is durable; the stale file only wastes disk),
	// but silence would hide a filling disk — the facade surfaces the
	// counter through System.HealthInfo.
	cleanupErrs atomic.Int64

	// bytesWritten/bytesRead count on-disk snapshot I/O volume (container
	// bytes: header + stored payload) for the stats plane.
	bytesWritten atomic.Int64
	bytesRead    atomic.Int64
}

const snapPrefix, snapSuffix = "snap-", ".json"

// OpenStore opens (creating if needed) a snapshot directory. Orphaned
// temp files left by a crash mid-write are swept; the store assumes a
// single owning process (as the facade guarantees).
func OpenStore(dir string) (*SnapshotStore, error) {
	return OpenStoreFS(vfs.OS(), dir)
}

// OpenStoreFS is OpenStore over an explicit filesystem.
func OpenStoreFS(fsys vfs.FS, dir string) (*SnapshotStore, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: open snapshot store: %w", err)
	}
	st := ViewStore(fsys, dir)
	if des, err := fsys.ReadDir(dir); err == nil {
		for _, de := range des {
			if !de.IsDir() && strings.Contains(de.Name(), ".tmp-") {
				if err := fsys.Remove(filepath.Join(dir, de.Name())); err != nil && !os.IsNotExist(err) {
					st.cleanupErrs.Add(1)
				}
			}
		}
	}
	return st, nil
}

// ViewStore addresses the snapshot directory dir without touching it:
// unlike OpenStoreFS it creates nothing and sweeps nothing, and a missing
// directory lists empty. Reading a layout through it leaves the layout
// as it was.
func ViewStore(fsys vfs.FS, dir string) *SnapshotStore {
	return &SnapshotStore{fsys: fsys, dir: dir}
}

// CleanupErrs returns how many stale-file removals have failed over the
// store's lifetime (orphaned temp sweeps and snapshot pruning).
func (st *SnapshotStore) CleanupErrs() int64 { return st.cleanupErrs.Load() }

// BytesWritten returns the snapshot bytes written over the store's
// lifetime (container bytes, i.e. post-compression).
func (st *SnapshotStore) BytesWritten() int64 { return st.bytesWritten.Load() }

// BytesRead returns the snapshot bytes read by Load over the store's
// lifetime (recovery and explicit loads).
func (st *SnapshotStore) BytesRead() int64 { return st.bytesRead.Load() }

// fileFor returns the snapshot file name covering seq. Sharded states
// (epoch > 0) qualify the name with the control epoch: a shard whose
// journal did not advance between two checkpoint cuts would otherwise
// reuse the name and overwrite an older generation's part — and its
// state CAN differ at the same sequence number, because a schema
// evolution on the control log migrates instances without touching the
// data shard's journal. Same seq and same epoch imply identical state,
// so that residual sharing is safe.
func fileFor(seq, epoch int) string {
	if epoch > 0 {
		return fmt.Sprintf("%s%012d.e%09d%s", snapPrefix, seq, epoch, snapSuffix)
	}
	return fmt.Sprintf("%s%012d%s", snapPrefix, seq, snapSuffix)
}

// parseName parses the sequence number and control epoch out of a snapshot
// file name (epoch 0 for the plain form). Anything else in the directory —
// temp files, the per-store MANIFEST.json earlier builds wrote — is not a
// snapshot.
func parseName(name string) (seq, epoch int, ok bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, 0, false
	}
	core := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix)
	if i := strings.Index(core, ".e"); i >= 0 {
		e, err := strconv.Atoi(core[i+2:])
		if err != nil || e < 0 {
			return 0, 0, false
		}
		epoch, core = e, core[:i]
	}
	n, err := strconv.Atoi(core)
	if err != nil || n < 0 {
		return 0, 0, false
	}
	return n, epoch, true
}

// Write persists the state as a new snapshot: payload to a temp file,
// fsync, atomic rename, directory fsync. A crash at any point leaves
// older snapshots untouched. The file only takes part in recovery once a
// generation of the global manifest names it (or, in a layout without a
// manifest, by being listed).
func (st *SnapshotStore) Write(state *SystemState) (string, error) {
	raw, err := json.Marshal(state)
	if err != nil {
		return "", fmt.Errorf("durable: marshal snapshot: %w", err)
	}
	// gzip at the fastest level — checkpoint latency matters more than the
	// last few percent of ratio on this payload.
	var gz bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&gz, gzip.BestSpeed)
	if _, err := zw.Write(raw); err != nil {
		return "", fmt.Errorf("durable: compress snapshot: %w", err)
	}
	if err := zw.Close(); err != nil {
		return "", fmt.Errorf("durable: compress snapshot: %w", err)
	}
	payload := gz.Bytes()
	hdr, err := json.Marshal(snapHeader{
		Format: containerFormat,
		Seq:    state.Seq,
		Len:    len(payload),
		CRC32:  crc32.ChecksumIEEE(payload),
		RawLen: len(raw),
	})
	if err != nil {
		return "", fmt.Errorf("durable: marshal snapshot header: %w", err)
	}
	name := fileFor(state.Seq, state.Epoch)
	var buf bytes.Buffer
	buf.Grow(len(hdr) + 1 + len(payload))
	buf.Write(hdr)
	buf.WriteByte('\n')
	buf.Write(payload)
	if err := AtomicWriteFS(st.fsys, st.dir, name, buf.Bytes()); err != nil {
		return "", err
	}
	st.bytesWritten.Add(int64(buf.Len()))
	return filepath.Join(st.dir, name), nil
}

// AtomicWriteFS writes name in dir via temp file + fsync + rename + dir
// fsync. The directory fsync error is propagated: until it returns, the rename is
// not durable, and a caller that reported success anyway could lose an
// acknowledged checkpoint to a crash (the torn-rename window).
func AtomicWriteFS(fsys vfs.FS, dir, name string, data []byte) error {
	tmp, err := vfs.CreateTemp(fsys, dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("durable: write %s: %w", name, err)
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); fsys.Remove(tmpName) }
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("durable: write %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("durable: fsync %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmpName)
		return fmt.Errorf("durable: close %s: %w", name, err)
	}
	if err := fsys.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		fsys.Remove(tmpName)
		return fmt.Errorf("durable: rename %s: %w", name, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("durable: fsync dir for %s: %w", name, err)
	}
	return nil
}

// Entries lists the snapshots present in the store, ascending by sequence
// number (then epoch).
func (st *SnapshotStore) Entries() ([]ManifestEntry, error) {
	return ListSnapshots(st.fsys, st.dir)
}

// ListSnapshots lists the snapshot files in dir like Entries, without
// opening (and thereby creating) a store; a missing directory lists empty.
func ListSnapshots(fsys vfs.FS, dir string) ([]ManifestEntry, error) {
	des, err := fsys.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("durable: list snapshots: %w", err)
	}
	var out []ManifestEntry
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		if seq, epoch, ok := parseName(de.Name()); ok {
			out = append(out, ManifestEntry{File: de.Name(), Seq: seq, Epoch: epoch})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seq != out[j].Seq {
			return out[i].Seq < out[j].Seq
		}
		return out[i].Epoch < out[j].Epoch
	})
	return out, nil
}

// Load reads and fully validates one snapshot: header format, length, and
// checksum. Any mismatch (torn tail, corruption, version skew) returns an
// error; the caller falls back to an older snapshot or a full replay.
func (st *SnapshotStore) Load(entry ManifestEntry) (*SystemState, error) {
	f, err := vfs.Open(st.fsys, filepath.Join(st.dir, entry.File))
	if err != nil {
		return nil, fmt.Errorf("durable: open snapshot %s: %w", entry.File, err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	hdr, hdrLen, err := readHeader(br, entry.File)
	if err != nil {
		return nil, err
	}
	if hdr.Seq != entry.Seq {
		return nil, fmt.Errorf("durable: snapshot %s: header seq %d does not match file name", entry.File, hdr.Seq)
	}
	// One byte past the promised length tells trailing data from an exact
	// payload, and a length the file does not back never becomes an
	// allocation: the buffer grows with the bytes actually read.
	payload, err := io.ReadAll(io.LimitReader(br, int64(hdr.Len)+1))
	switch {
	case err != nil:
		return nil, fmt.Errorf("durable: snapshot %s: torn payload: %w", entry.File, err)
	case len(payload) < hdr.Len:
		return nil, fmt.Errorf("durable: snapshot %s: torn payload: %d of %d bytes", entry.File, len(payload), hdr.Len)
	case len(payload) > hdr.Len:
		return nil, fmt.Errorf("durable: snapshot %s: trailing data after payload", entry.File)
	}
	if crc := crc32.ChecksumIEEE(payload); crc != hdr.CRC32 {
		return nil, fmt.Errorf("durable: snapshot %s: checksum mismatch (%08x != %08x)", entry.File, crc, hdr.CRC32)
	}
	st.bytesRead.Add(int64(hdrLen + hdr.Len))
	zr, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("durable: snapshot %s: corrupt gzip payload: %w", entry.File, err)
	}
	raw, err := io.ReadAll(zr)
	if cerr := zr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("durable: snapshot %s: corrupt gzip payload: %w", entry.File, err)
	}
	var state SystemState
	if err := json.Unmarshal(raw, &state); err != nil {
		return nil, fmt.Errorf("durable: snapshot %s: corrupt payload: %w", entry.File, err)
	}
	if state.Seq != hdr.Seq {
		return nil, fmt.Errorf("durable: snapshot %s: payload seq %d != header seq %d", entry.File, state.Seq, hdr.Seq)
	}
	state.decoded = true
	return &state, nil
}

// readHeader reads a snapshot's header line and checks what every reader
// relies on: this build's container format and a payload length that is
// not negative. It returns the header and the line's length; name labels
// the errors.
func readHeader(br *bufio.Reader, name string) (snapHeader, int, error) {
	var hdr snapHeader
	line, err := br.ReadBytes('\n')
	if err != nil {
		return hdr, 0, fmt.Errorf("durable: snapshot %s: torn header: %w", name, err)
	}
	if err := json.Unmarshal(line, &hdr); err != nil {
		return hdr, 0, fmt.Errorf("durable: snapshot %s: corrupt header: %w", name, err)
	}
	if hdr.Format != containerFormat {
		return hdr, 0, fmt.Errorf("durable: snapshot %s: container format %d, want %d", name, hdr.Format, containerFormat)
	}
	if hdr.Len < 0 {
		return hdr, 0, fmt.Errorf("durable: snapshot %s: corrupt header: payload length %d", name, hdr.Len)
	}
	return hdr, len(line), nil
}

// SnapshotInfo summarizes a snapshot file's header: the journal sequence
// number it covers, the stored (compressed) payload size and the
// uncompressed one.
type SnapshotInfo struct {
	Seq       int
	StoredLen int
	RawLen    int
}

// ReadSnapshotInfo reads just the header line of the snapshot file at path
// (for tooling output — adeptctl reports both payload sizes).
func ReadSnapshotInfo(fsys vfs.FS, path string) (SnapshotInfo, error) {
	f, err := vfs.Open(fsys, path)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("durable: open snapshot: %w", err)
	}
	defer f.Close()
	hdr, _, err := readHeader(bufio.NewReaderSize(f, 4096), path)
	if err != nil {
		return SnapshotInfo{}, err
	}
	return SnapshotInfo{Seq: hdr.Seq, StoredLen: hdr.Len, RawLen: hdr.RawLen}, nil
}

// PruneExcept removes every snapshot file whose name is not in keep.
// Retention is decided by the global manifest's generations, not by file
// count.
func (st *SnapshotStore) PruneExcept(keep map[string]bool) error {
	entries, err := st.Entries()
	if err != nil {
		return err
	}
	for _, e := range entries {
		if keep[e.File] {
			continue
		}
		// A failed removal must not fail the checkpoint that triggered the
		// prune — the new snapshot is already durable. Count it instead
		// (surfaced through HealthInfo) and retry on the next prune pass.
		if err := st.fsys.Remove(filepath.Join(st.dir, e.File)); err != nil && !os.IsNotExist(err) {
			st.cleanupErrs.Add(1)
		}
	}
	return nil
}

// CompactJournal rewrites the journal at path to only the records past
// keepSeq (the sequence number a durable snapshot covers), atomically.
// It returns how many records were dropped. The newest record is always
// retained even when the snapshot covers it: a journal emptied completely
// would be indistinguishable from a brand-new one, silently disabling the
// compacted-journal-requires-snapshot guard if the snapshots are ever
// lost. The resulting journal starts past seq 1; recovering it requires a
// snapshot reaching its first record.
func CompactJournal(path string, keepSeq int) (int, error) {
	return CompactJournalFS(vfs.OS(), path, keepSeq)
}

// CompactJournalFS is CompactJournal over an explicit filesystem.
func CompactJournalFS(fsys vfs.FS, path string, keepSeq int) (int, error) {
	// The scan checks the whole journal and reports where the kept suffix
	// starts; its lines are written back exactly as they were read.
	recs, tail, err := persist.LoadJournalSuffixFS(fsys, path, keepSeq)
	if err != nil {
		return 0, err
	}
	if len(recs) == 0 && tail.LastSeq > 0 {
		// Keep the final record as the compaction tombstone.
		keepSeq = tail.LastSeq - 1
		recs, tail, err = persist.LoadJournalSuffixFS(fsys, path, keepSeq)
		if err != nil {
			return 0, err
		}
	}
	dropped := 0
	if tail.FirstSeq > 0 && tail.FirstSeq <= keepSeq {
		end := tail.LastSeq
		if end > keepSeq {
			end = keepSeq
		}
		dropped = end - tail.FirstSeq + 1
	}
	if dropped == 0 {
		return 0, nil
	}
	f, err := vfs.Open(fsys, path)
	if err != nil {
		return 0, fmt.Errorf("durable: compact: %w", err)
	}
	kept := make([]byte, tail.ValidSize-tail.SuffixStart, tail.ValidSize-tail.SuffixStart+1)
	_, err = io.CopyN(io.Discard, f, tail.SuffixStart)
	if err == nil {
		_, err = io.ReadFull(f, kept)
	}
	f.Close() // read only, and closed before the rename replaces it
	if err != nil {
		return 0, fmt.Errorf("durable: compact: read %s: %w", path, err)
	}
	if tail.OpenTail {
		kept = append(kept, '\n')
	}
	dir, name := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	if err := AtomicWriteFS(fsys, dir, name, kept); err != nil {
		return 0, err
	}
	return dropped, nil
}
