package durable

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/persist"
	"adept2/internal/sim"
	"adept2/internal/vfs"
)

// populate builds a small engine: two instances of the online-order
// process, one advanced and one biased, with a started work item.
func populate(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(sim.Org())
	if err := e.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatal(err)
	}
	i1, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AdvanceOnlineOrderToI1(e, i1); err != nil {
		t.Fatal(err)
	}
	i2, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(i2.ID(), "get_order", "ann", map[string]any{"out": "order-2"}); err != nil {
		t.Fatal(err)
	}
	if err := e.StartActivityAt(i2.ID(), "collect_data", "ann", 0); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCaptureRestoreRoundTrip(t *testing.T) {
	e := populate(t)
	insts := e.Instances()
	st := Stage(e, 42)
	if st.Seq != 42 || len(st.Instances) != 2 || len(st.Schemas) != 1 {
		t.Fatalf("capture: %+v", st)
	}

	e2 := engine.New(nil)
	if err := Restore(e2, st); err != nil {
		t.Fatal(err)
	}
	for _, orig := range insts {
		re, ok := e2.Instance(orig.ID())
		if !ok {
			t.Fatalf("instance %s missing after restore", orig.ID())
		}
		if re.Version() != orig.Version() || re.Done() != orig.Done() {
			t.Fatalf("instance %s flags differ", orig.ID())
		}
		for _, n := range []string{"get_order", "collect_data", "compose_order", "pay"} {
			if got, want := re.NodeState(n), orig.NodeState(n); got != want {
				t.Fatalf("%s/%s: %s != %s", orig.ID(), n, got, want)
			}
		}
		if len(re.HistoryEvents()) != len(orig.HistoryEvents()) {
			t.Fatalf("%s history length differs", orig.ID())
		}
	}
	// Worklist items (and the started one's state) survived with their IDs.
	origItems := e.Worklist().ItemsFor("ann")
	restItems := e2.Worklist().ItemsFor("ann")
	if len(origItems) != len(restItems) {
		t.Fatalf("worklist items: %d != %d", len(origItems), len(restItems))
	}
	for i := range origItems {
		if origItems[i].ID != restItems[i].ID || origItems[i].State != restItems[i].State {
			t.Fatalf("item %d differs: %+v vs %+v", i, origItems[i], restItems[i])
		}
	}
	// Instance numbering continues, not restarts.
	i3, err := e2.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if i3.ID() != "inst-000003" {
		t.Fatalf("counter not restored: %s", i3.ID())
	}
}

func TestCaptureRestoreBiasedInstance(t *testing.T) {
	e := engine.New(sim.Org())
	if err := e.Deploy(sim.OnlineOrder()); err != nil {
		t.Fatal(err)
	}
	inst, err := e.CreateInstance("online_order", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CompleteActivity(inst.ID(), "get_order", "ann", map[string]any{"out": "o"}); err != nil {
		t.Fatal(err)
	}
	if err := change.ApplyAdHoc(inst, sim.OnlineOrderBiasI2()...); err != nil {
		t.Fatal(err)
	}
	st := Stage(e, 1)
	e2 := engine.New(nil)
	if err := Restore(e2, st); err != nil {
		t.Fatal(err)
	}
	re, _ := e2.Instance(inst.ID())
	if !re.Biased() || len(re.BiasOps()) != len(inst.BiasOps()) {
		t.Fatalf("bias lost: %v", re.BiasOps())
	}
	if re.NodeState("confirm_order") != inst.NodeState("confirm_order") {
		t.Fatal("bias-inserted node state differs")
	}
}

// TestRestoreRefusesAnInstanceWithoutState: an instance entry that decodes
// to no snapshot — {} or null — fails the restore instead of crashing it.
func TestRestoreRefusesAnInstanceWithoutState(t *testing.T) {
	for _, entry := range []string{`{}`, `null`} {
		var st SystemState
		if err := json.Unmarshal([]byte(`{"format":1,"seq":1,"instances":[`+entry+`]}`), &st); err != nil {
			t.Fatal(err)
		}
		if err := Restore(engine.New(nil), &st); err == nil {
			t.Fatalf("instance %s restored", entry)
		}
	}
}

func TestSnapshotStoreWriteLoad(t *testing.T) {
	st := &SystemState{Format: FormatVersion, Seq: 7, InstanceCounter: 3}
	store, err := OpenStore(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Write(st); err != nil {
		t.Fatal(err)
	}
	entries, err := store.Entries()
	if err != nil || len(entries) != 1 || entries[0].Seq != 7 {
		t.Fatalf("entries=%v err=%v", entries, err)
	}
	got, err := store.Load(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || got.InstanceCounter != 3 {
		t.Fatalf("loaded %+v", got)
	}
}

func TestSnapshotStoreDetectsCorruption(t *testing.T) {
	store, err := OpenStore(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	file, err := store.Write(&SystemState{Format: FormatVersion, Seq: 3})
	if err != nil {
		t.Fatal(err)
	}
	entries, _ := store.Entries()

	blob, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"torn tail":     blob[:len(blob)-2],
		"flipped byte":  append(append([]byte{}, blob[:len(blob)-2]...), blob[len(blob)-2]^0xff, blob[len(blob)-1]),
		"trailing junk": append(append([]byte{}, blob...), 'x'),
		"empty":         nil,
	}
	for name, data := range cases {
		if err := os.WriteFile(file, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Load(entries[0]); err == nil {
			t.Fatalf("%s: corruption not detected", name)
		}
	}
	// Version skew is rejected too.
	if err := os.WriteFile(file, []byte(`{"format":99,"seq":3,"len":2,"crc32":0}`+"\n{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(entries[0]); err == nil {
		t.Fatal("format skew not detected")
	}
}

// TestSnapshotLoadChecksPayloadLength: the header's payload length is
// held against the bytes that follow it before anything is allocated for
// it, so a wrong one is an error recovery falls back on — never a panic,
// and never an allocation the file does not back.
func TestSnapshotLoadChecksPayloadLength(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(&SystemState{Format: FormatVersion, Seq: 7})
	if err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	payload := gz.Bytes()
	entry := ManifestEntry{File: "snap-000000000007.json", Seq: 7}
	for _, tc := range []struct {
		name string
		len  int
		want string
	}{
		{"negative", -1, "corrupt header: payload length -1"},
		{"huge", 1 << 40, "torn payload"},
		{"short", len(payload) + 1, "torn payload"},
		{"long", len(payload) - 1, "trailing data"},
	} {
		hdr, err := json.Marshal(snapHeader{Format: containerFormat, Seq: 7, Len: tc.len, CRC32: crc32.ChecksumIEEE(payload), RawLen: len(raw)})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, entry.File), append(append(hdr, '\n'), payload...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Load(entry); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s length: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestCompactJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.ndjson")
	j, err := persist.OpenJournalBufferedFS(vfs.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if _, err := j.AppendRecord("op", 0, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dropped, err := CompactJournal(path, 6)
	if err != nil || dropped != 6 {
		t.Fatalf("dropped=%d err=%v", dropped, err)
	}
	// The kept records are the journal's own lines, byte for byte.
	lines := strings.SplitAfter(string(before), "\n")
	if after, err := os.ReadFile(path); err != nil || string(after) != strings.Join(lines[6:], "") {
		t.Fatalf("compacted journal %q, want the last four lines of %q (%v)", after, before, err)
	}
	recs, _, err := persist.LoadJournalSuffixFS(vfs.OS(), path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[0].Seq != 7 || recs[3].Seq != 10 {
		t.Fatalf("records after compact: %+v", recs)
	}
	// The compacted journal accepts further appends continuing the seq.
	j2, err := persist.OpenJournalBufferedFS(vfs.OS(), path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.AppendRecord("op", 0, 11); err != nil {
		t.Fatal(err)
	}
	if j2.Seq() != 11 {
		t.Fatalf("seq after reopen = %d", j2.Seq())
	}
	j2.Close()
}

func TestOpenStoreSweepsOrphanedTempFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "snaps")
	if _, err := OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "snap-000000000009.json.tmp-123456")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned temp file not swept: %v", err)
	}
}

// TestSnapshotCompression: new snapshots use the gzip container, report
// both sizes through ReadSnapshotInfo, and load back exactly; a raw v1
// container, which only a pre-compression build wrote, is refused with the
// format error (the root TestV1SnapshotPartFallsBack opens a layout whose
// newest generation holds one).
func TestSnapshotCompression(t *testing.T) {
	e := populate(t)
	st := Stage(e, 9)
	dir := filepath.Join(t.TempDir(), "snaps")
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	file, err := store.Write(st)
	if err != nil {
		t.Fatal(err)
	}
	info, err := ReadSnapshotInfo(vfs.OS(), file)
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 9 {
		t.Fatalf("info: %+v", info)
	}
	if info.StoredLen >= info.RawLen {
		t.Fatalf("no compression win: stored %d, raw %d", info.StoredLen, info.RawLen)
	}
	if fi, err := os.Stat(file); err != nil || fi.Size() > int64(info.RawLen) {
		t.Fatalf("file larger than raw payload: %v bytes, err=%v", fi.Size(), err)
	}
	entries, _ := store.Entries()
	got, err := store.Load(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 9 || len(got.Instances) != len(st.Instances) {
		t.Fatalf("loaded %+v", got)
	}

	// Hand-build a v1 (raw) container the way pre-compression builds
	// wrote them: it is refused like a torn one, naming its format.
	payload, err := json.Marshal(&SystemState{Format: FormatVersion, Seq: 4, InstanceCounter: 2})
	if err != nil {
		t.Fatal(err)
	}
	hdr, _ := json.Marshal(map[string]any{
		"format": 1, "seq": 4, "len": len(payload), "crc32": crc32.ChecksumIEEE(payload),
	})
	raw := append(append(hdr, '\n'), payload...)
	v1 := filepath.Join(dir, "snap-000000000004.json")
	if err := os.WriteFile(v1, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	const refusal = "container format 1, want 2"
	if old, err := store.Load(ManifestEntry{File: "snap-000000000004.json", Seq: 4}); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("v1 container: loaded %+v, err %v; want an error containing %q", old, err, refusal)
	}
	if oldInfo, err := ReadSnapshotInfo(vfs.OS(), v1); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("v1 info: %+v, err %v; want an error containing %q", oldInfo, err, refusal)
	}
}

// TestEpochQualifiedSnapshotNames: states captured at a control epoch get
// epoch-qualified file names, so generations of a quiescent shard never
// overwrite each other; both name forms list and prune together.
func TestEpochQualifiedSnapshotNames(t *testing.T) {
	store, err := OpenStore(filepath.Join(t.TempDir(), "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	f1, err := store.Write(&SystemState{Format: FormatVersion, Seq: 5, Epoch: 2})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := store.Write(&SystemState{Format: FormatVersion, Seq: 5, Epoch: 3})
	if err != nil {
		t.Fatal(err)
	}
	if f1 == f2 {
		t.Fatalf("distinct epochs must get distinct files: %s", f1)
	}
	entries, err := store.Entries()
	if err != nil || len(entries) != 2 {
		t.Fatalf("entries: %v err=%v", entries, err)
	}
	for i, e := range entries {
		if e.Seq != 5 || e.Epoch != 2+i {
			t.Fatalf("parsed seq/epoch: %+v", e)
		}
		if _, err := store.Load(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.PruneExcept(map[string]bool{entries[1].File: true}); err != nil {
		t.Fatal(err)
	}
	entries, _ = store.Entries()
	if len(entries) != 1 || entries[0].File == "" {
		t.Fatalf("after prune: %v", entries)
	}
}
