package sharded

import (
	"fmt"
	"path/filepath"
	"sync"

	"adept2/internal/durable"
)

// WriteCheckpoint persists one generation: every shard's part of the
// staged state is encoded and written to its snapshot store concurrently,
// and only when all parts are durable is the global manifest rewritten
// with the new generation appended (and trimmed to keep generations). A
// crash — or any part failing — before the manifest write leaves the
// previous generations fully intact; the orphaned part files are swept by
// the next successful checkpoint's pruning pass. Returns the updated
// manifest and shard 0's snapshot file path.
func WriteCheckpoint(l Layout, man *Manifest, stores []*durable.SnapshotStore, parts []*durable.SystemState, epoch int, seqs []int, keep int) (*Manifest, string, error) {
	n := l.Shards
	files := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			files[k], errs[k] = stores[k].Write(parts[k])
		}(k)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return man, "", fmt.Errorf("sharded: checkpoint shard %d: %w", k, err)
		}
	}

	gen := Generation{Epoch: epoch, Parts: make([]Part, n)}
	for k := 0; k < n; k++ {
		gen.Parts[k] = Part{File: filepath.Base(files[k]), Seq: seqs[k]}
	}
	next := &Manifest{Format: ManifestFormat, Shards: n, Heads: seqs, ReplayFloors: man.ReplayFloors}
	gens := append(append([]Generation(nil), man.Generations...), gen)
	if keep > 0 && len(gens) > keep {
		gens = gens[len(gens)-keep:]
	}
	next.Generations = gens
	if err := WriteManifestFS(l.fs(), l.Base, next); err != nil {
		return man, "", err
	}
	pruneUnreferenced(l, next, stores)
	return next, files[0], nil
}

// pruneUnreferenced removes snapshot files no retained generation points
// at (stale generations, orphans of failed checkpoint attempts). Removal
// failures never fail the checkpoint — the manifest already committed —
// but each store counts them (SnapshotStore.CleanupErrs) so the facade
// can surface a disk that stopped letting go of space.
func pruneUnreferenced(l Layout, man *Manifest, stores []*durable.SnapshotStore) {
	for k := 0; k < l.Shards; k++ {
		keep := make(map[string]bool)
		for _, gen := range man.Generations {
			if k < len(gen.Parts) {
				keep[gen.Parts[k].File] = true
			}
		}
		_ = stores[k].PruneExcept(keep)
	}
}

// CompactAll rewrites every shard journal to the suffix its part of the
// newest generation does not cover (offline — the journals must be
// closed). Returns the total number of records dropped.
func CompactAll(base string) (int, error) {
	l, man, _, err := Resolve(Layout{Base: base})
	if err != nil {
		return 0, err
	}
	if len(man.Generations) == 0 {
		return 0, fmt.Errorf("sharded: no generation to compact against (checkpoint first)")
	}
	gen := man.Generations[len(man.Generations)-1]
	total := 0
	for k := 0; k < man.Shards; k++ {
		dropped, err := durable.CompactJournal(l.JournalPath(k), gen.Parts[k].Seq)
		if err != nil {
			return total, fmt.Errorf("sharded: compact shard %d: %w", k, err)
		}
		total += dropped
	}
	return total, nil
}
