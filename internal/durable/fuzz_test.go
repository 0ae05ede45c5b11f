package durable

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"adept2/internal/vfs"
)

// fuzzSnapFile is where FuzzSnapshotLoad puts its bytes: a snapshot file
// covering seq 7, so a header claiming seq 7 reaches the payload checks.
const fuzzSnapFile = "snap-000000000007.json"

// FuzzSnapshotLoad holds the snapshot container to "error or round-trip":
// whatever bytes sit in a snapshot file, Load returns an error, or a state
// that Write and a second Load return unchanged. It never panics, and a
// header never makes Load allocate what the file does not hold. The
// checked-in corpus has a v2 gzip container, a v1 raw one (which only a
// pre-compression build wrote, and Load refuses), a header without its
// newline, and negative, huge and off-by-one payload lengths.
func FuzzSnapshotLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		mem := vfs.NewMemFS()
		store, err := OpenStoreFS(mem, "snaps")
		if err != nil {
			t.Fatal(err)
		}
		if err := AtomicWriteFS(mem, "snaps", fuzzSnapFile, data); err != nil {
			t.Fatal(err)
		}
		st, err := store.Load(ManifestEntry{File: fuzzSnapFile, Seq: 7})
		if err != nil {
			return
		}
		want, err := json.Marshal(st)
		if err != nil {
			t.Fatalf("a loaded state does not encode: %v", err)
		}
		again, err := OpenStoreFS(mem, "again")
		if err != nil {
			t.Fatal(err)
		}
		file, err := again.Write(st)
		if err != nil {
			t.Fatalf("a loaded state does not write: %v", err)
		}
		back, err := again.Load(ManifestEntry{File: filepath.Base(file), Seq: st.Seq})
		if err != nil {
			t.Fatalf("a written state does not load: %v", err)
		}
		got, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Write + Load changed the state:\n got %s\nwant %s", got, want)
		}
	})
}
