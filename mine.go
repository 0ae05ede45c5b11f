package adept2

import (
	"context"

	"adept2/internal/durable/sharded"
	"adept2/internal/engine"
	"adept2/internal/mining"
)

// MineOptions tunes a System.Mine scan.
type MineOptions struct {
	// BatchSize is how many instances each read-barrier acquisition
	// covers (default 256). Smaller batches yield the barrier to
	// checkpoints more often; the scan's peak allocation is O(BatchSize
	// + the report's capped tables), never O(population).
	BatchSize int
	// MaxVariants caps the report's distinct-variant table (default
	// 512); MaxEdges the traversal-edge table (default 4096); TopPaths
	// the hot-path extraction (default 5).
	MaxVariants int
	MaxEdges    int
	TopPaths    int
}

// Mine streams the live population through the process-mining fold
// (internal/mining) and returns the report: variant frequencies, hot
// paths, per-node traversal/exception/duration aggregates, and drift
// against the latest deployed schema versions.
//
// The scan runs under the snapshot read barrier in shard-aligned
// batches: each InstancesPage walk holds snapMu shared (like any data
// command — writers are not blocked), folds every instance of the
// batch inside that instance's own lock via engine.MineHistory with a
// single shared decode scratch, then releases the barrier before
// paging on. Instances created while the scan is in flight may or may
// not be included (cursor semantics); each included instance's history
// is internally consistent because the fold runs under its lock.
func (s *System) Mine(ctx context.Context, opts MineOptions) (*mining.Report, error) {
	if opts.BatchSize <= 0 {
		opts.BatchSize = 256
	}
	m := mining.NewMiner(mining.Options{
		MaxVariants: opts.MaxVariants,
		MaxEdges:    opts.MaxEdges,
		TopPaths:    opts.TopPaths,
	})
	for _, t := range s.eng.Types() {
		v := s.eng.LatestVersion(t)
		if sch, ok := s.eng.Schema(t, v); ok {
			m.Deployed(t, v, sch.NodeIDs())
		}
	}

	shards := s.NumShards()
	// One visitor closure and one decode scratch serve the whole scan,
	// so the steady-state fold allocates nothing per instance.
	var sc engine.MineScratch
	var shard int
	visit := func(v engine.MineView) { m.Observe(v, shard) }
	for cursor := ""; ; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.snapMu.RLock()
		insts, next := s.eng.InstancesPage(cursor, opts.BatchSize)
		for _, inst := range insts {
			shard = sharded.ShardOf(inst.ID(), shards)
			inst.MineHistory(&sc, visit)
		}
		s.snapMu.RUnlock()
		if next == "" {
			break
		}
		cursor = next
	}
	return m.Report(), nil
}
