package sharded

import (
	"bytes"
	"encoding/json"
	"testing"

	"adept2/internal/durable"
	"adept2/internal/vfs"
)

// FuzzManifest holds the global manifest to "error or round-trip": any
// bytes at ManifestPath make LoadManifestFS return an error, or a manifest
// that WriteManifestFS and a second LoadManifestFS return unchanged. The
// checked-in corpus has a manifest with reshard floors and one of a wrong
// format.
func FuzzManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		mem := vfs.NewMemFS()
		if err := durable.AtomicWriteFS(mem, ".", ManifestPath("wal"), data); err != nil {
			t.Fatal(err)
		}
		man, err := LoadManifestFS(mem, ManifestPath("wal"))
		if err != nil {
			return
		}
		if man == nil {
			t.Fatal("a manifest file on disk loaded as no manifest")
		}
		want, err := json.Marshal(man)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteManifestFS(mem, "wal", man); err != nil {
			t.Fatalf("a loaded manifest does not write: %v", err)
		}
		back, err := LoadManifestFS(mem, ManifestPath("wal"))
		if err != nil {
			t.Fatalf("a written manifest does not load: %v", err)
		}
		got, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Write + Load changed the manifest:\n got %s\nwant %s", got, want)
		}
	})
}
