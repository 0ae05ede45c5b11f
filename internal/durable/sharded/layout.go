// Package sharded assembles the building blocks of internal/durable into
// the one durability layout of N >= 1 journals: instances are hashed by
// instance ID onto shards, each shard owns its own journal file, its own
// group-commit committer, and its own snapshot series, and recovery opens
// all shards in parallel.
// Shard 0 doubles as the control log: schema deploys, org/user changes,
// and schema evolutions are appended there, and the sequence number of
// the last control record — the epoch — is stamped onto every data-shard
// record so cross-shard recovery can re-establish a consistent order.
// See the package documentation of internal/durable for the invariants.
package sharded

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"adept2/internal/durable"
	"adept2/internal/vfs"
)

// Layout names the on-disk artifacts of a journal set of N >= 1 shards
// rooted at a base journal path. Shard 0's journal is the base path itself
// and its snapshot directory the base's sibling (or SnapBase itself), so a
// one-shard layout is exactly the directory a build before sharding wrote;
// shard k > 0 lives in sibling files.
type Layout struct {
	// Base is the shard-0 journal path (the path handed to adept2.Open).
	Base string
	// Shards is the shard count (>= 1).
	Shards int
	// SnapBase optionally overrides the snapshot directory root: shard
	// 0's store is SnapBase itself, shard k > 0 gets SnapBase/shard-k.
	// Empty selects the default sibling-directory scheme
	// (<journal>.snapshots per shard).
	SnapBase string
	// FS is the filesystem every artifact of the layout is accessed
	// through; nil selects the real OS filesystem.
	FS vfs.FS
}

// fs resolves the layout's filesystem, defaulting to the OS backend.
func (l Layout) fs() vfs.FS {
	if l.FS != nil {
		return l.FS
	}
	return vfs.OS()
}

// JournalPath returns shard k's journal file path.
func (l Layout) JournalPath(k int) string {
	if k == 0 {
		return l.Base
	}
	return fmt.Sprintf("%s.shard-%d", l.Base, k)
}

// SnapDir returns shard k's snapshot directory.
func (l Layout) SnapDir(k int) string {
	switch {
	case l.SnapBase == "":
		return l.JournalPath(k) + ".snapshots"
	case k == 0:
		return l.SnapBase
	}
	return filepath.Join(l.SnapBase, fmt.Sprintf("shard-%d", k))
}

// ManifestPath returns the global manifest path for a base journal path.
func ManifestPath(base string) string { return base + ".MANIFEST.json" }

// ShardOf hashes an instance ID onto one of n shards. The hash must stay
// stable across processes (it is baked into the on-disk partitioning):
// FNV-1a over the ID bytes.
func ShardOf(instID string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(instID))
	return int(h.Sum32() % uint32(n))
}

// ManifestFormat versions the global manifest schema.
const ManifestFormat = 1

// Part ties one shard's snapshot file to the journal sequence number it
// covers within a generation.
type Part struct {
	File string `json:"file"`
	Seq  int    `json:"seq"`
}

// Generation records one checkpoint cut: every shard's snapshot was
// captured under the same exclusive barrier, at the same control epoch,
// so restoring all parts of one generation yields a consistent state.
type Generation struct {
	// Epoch is the control-log (shard 0) sequence number of the last
	// control record folded into the cut.
	Epoch int    `json:"epoch"`
	Parts []Part `json:"parts"`
}

// Manifest is the layout's global manifest, and it is authoritative: it
// declares the shard count (the partitioning function), and its generation
// list is the unit of recovery fallback — a generation is only usable when
// every part of it validates, so the manifest is written after all parts
// are durable. A layout without one is resolved by Resolve.
type Manifest struct {
	Format int `json:"format"`
	Shards int `json:"shards"`
	// Heads records each shard's journal head sequence number as of the
	// newest generation (diagnostic; recovery trusts the journals).
	Heads []int `json:"heads,omitempty"`
	// Generations lists checkpoint cuts, ascending (newest last).
	Generations []Generation `json:"generations,omitempty"`
	// ReplayFloors marks, per shard, the journal position of the last
	// reshard cut: records at or below the floor were partitioned under
	// a DIFFERENT shard count, so a full merged replay — which orders
	// data shards only by epoch — could interleave one instance's
	// records from two shards, or miss the instances of shards a shrink
	// removed. Recovery refuses full replay for a shard whose journal
	// still reaches its floor (a generation snapshot is required
	// instead). A reshard from ONE shard leaves shard 0's floor as it
	// was (0 unless an earlier shrink set it): that journal holds every
	// record in total order, and a full replay reproduces it.
	ReplayFloors []int `json:"replayFloors,omitempty"`
}

// NewManifest initializes an empty manifest for n shards.
func NewManifest(n int) *Manifest {
	return &Manifest{Format: ManifestFormat, Shards: n}
}

// LoadManifest reads the global manifest; a missing file returns (nil,
// nil) — see Resolve for what such a layout is.
func LoadManifest(path string) (*Manifest, error) {
	return LoadManifestFS(vfs.OS(), path)
}

// LoadManifestFS is LoadManifest over an explicit filesystem.
func LoadManifestFS(fsys vfs.FS, path string) (*Manifest, error) {
	blob, err := vfs.ReadFile(fsys, path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sharded: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("sharded: parse manifest %s: %w", path, err)
	}
	if m.Format != ManifestFormat {
		return nil, fmt.Errorf("sharded: manifest %s: format %d, want %d", path, m.Format, ManifestFormat)
	}
	if m.Shards < 1 {
		return nil, fmt.Errorf("sharded: manifest %s: invalid shard count %d", path, m.Shards)
	}
	return &m, nil
}

// Resolve completes l with the shard count of the layout on disk and
// returns its manifest; l.Shards is not consulted. A directory without a
// global manifest is the one-shard layout — what a build before sharding
// wrote, or a layout that has not checkpointed yet — and its generations
// are shard 0's snapshot-directory listing, oldest first; found reports
// whether the manifest came from disk. This is the only place that knows
// manifest-less directories exist: the first checkpoint (or reshard)
// writes the manifest, keeping the listed snapshots as older generations.
// Results: the completed layout, the manifest, found, error.
func Resolve(l Layout) (Layout, *Manifest, bool, error) {
	man, err := LoadManifestFS(l.fs(), ManifestPath(l.Base))
	if err != nil {
		return l, nil, false, err
	}
	found := man != nil
	if !found {
		entries, err := durable.ListSnapshots(l.fs(), l.SnapDir(0))
		if err != nil {
			return l, nil, false, err
		}
		man = NewManifest(1)
		for _, e := range entries {
			man.Generations = append(man.Generations,
				Generation{Epoch: e.Epoch, Parts: []Part{{File: e.File, Seq: e.Seq}}})
		}
	}
	l.Shards = man.Shards
	return l, man, found, nil
}

// WriteManifest atomically rewrites the global manifest (temp file +
// fsync + rename + directory fsync, like snapshot files).
func WriteManifest(base string, m *Manifest) error {
	return WriteManifestFS(vfs.OS(), base, m)
}

// WriteManifestFS is WriteManifest over an explicit filesystem.
func WriteManifestFS(fsys vfs.FS, base string, m *Manifest) error {
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("sharded: marshal manifest: %w", err)
	}
	dir, name := filepath.Split(ManifestPath(base))
	if dir == "" {
		dir = "."
	}
	return durable.AtomicWriteFS(fsys, dir, name, blob)
}

// StrayShardsFS lists the indexes of shard journals past the declared
// shard count that hold data.
func StrayShardsFS(fsys vfs.FS, base string, shards int) ([]int, error) {
	dir, name := filepath.Split(base)
	if dir == "" {
		dir = "."
	}
	des, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("sharded: scan layout: %w", err)
	}
	prefix := name + ".shard-"
	var stray []int
	for _, de := range des {
		if de.IsDir() || !strings.HasPrefix(de.Name(), prefix) {
			continue
		}
		k, err := strconv.Atoi(strings.TrimPrefix(de.Name(), prefix))
		if err != nil || k < shards {
			continue
		}
		if info, err := de.Info(); err == nil && info.Size() > 0 {
			stray = append(stray, k)
		}
	}
	return stray, nil
}

// CheckStrayShardsFS refuses when the directory holds shard journals past
// the manifest's shard count with records in them: silently ignoring a
// populated shard journal would drop its instances' history. Resharding
// (which rewrites the layout offline, and sweeps these up when rerun
// after an interrupted shrink) is the only legitimate way the shard
// count changes.
func CheckStrayShardsFS(fsys vfs.FS, base string, shards int) error {
	stray, err := StrayShardsFS(fsys, base, shards)
	if err != nil {
		return err
	}
	if len(stray) > 0 {
		return fmt.Errorf(
			"sharded: journal shard %d exists with data but the manifest declares %d shards: shard count mismatch, refusing to recover (rerun adeptctl reshard)",
			stray[0], shards)
	}
	return nil
}
