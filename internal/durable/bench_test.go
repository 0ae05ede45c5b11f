package durable

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"adept2/internal/persist"
	"adept2/internal/vfs"
)

// BenchmarkCommitter measures the group-commit committer's append
// throughput under concurrent writers: it turns N concurrent appends into
// one buffered write + one fsync per batch, so appends/sec scale with
// concurrency instead of being bound by the fsync latency (writers=1 is
// the lone writer's one write + one fsync per record).
func BenchmarkCommitter(b *testing.B) {
	args := map[string]any{"instance": "inst-000001", "node": "confirm_order", "user": "ann"}

	for _, writers := range []int{1, 8} {
		b.Run(fmt.Sprintf("group-writers=%d", writers), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "wal.ndjson")
			j, err := persist.OpenJournalBufferedFS(vfs.OS(), path)
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			c := NewCommitter(j, CommitterOptions{})
			defer c.Close()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / writers
			for w := 0; w < writers; w++ {
				n := per
				if w == 0 {
					n += b.N - per*writers
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if _, err := appendDurable(c, "complete", args); err != nil {
							b.Error(err)
							return
						}
					}
				}(n)
			}
			wg.Wait()
		})
	}
}
