package mining

import (
	"sort"

	"adept2/internal/engine"
	"adept2/internal/history"
	"adept2/internal/obs"
)

// Options tunes a mining scan. Zero values take defaults; every cap
// exists to keep the scan's memory bounded regardless of population
// size (see the package comment's scan invariants).
type Options struct {
	// MaxVariants caps the distinct-variant table (default 512).
	// Instances whose fingerprint would create an entry past the cap
	// are tallied into Report.VariantOverflow.
	MaxVariants int
	// MaxEdges caps the traversal-edge table (default 4096); excess
	// traversals tally into Report.EdgeOverflow.
	MaxEdges int
	// TopPaths is how many hot paths the report extracts (default 5).
	TopPaths int
}

func (o Options) withDefaults() Options {
	if o.MaxVariants <= 0 {
		o.MaxVariants = 512
	}
	if o.MaxEdges <= 0 {
		o.MaxEdges = 4096
	}
	if o.TopPaths <= 0 {
		o.TopPaths = 5
	}
	return o
}

// FNV-1a 64-bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

func fnvInt(h uint64, v int64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(v>>(8*i)))) * fnvPrime
	}
	return h
}

// Fingerprint folds a logical (reduced) history into its canonical
// variant hash: FNV-1a 64 over the Completed events' node IDs, XOR
// routing decisions, and loop-iteration flags, in order, with
// separator bytes between fields and events. Started events (in-flight
// work) are skipped; Failed and Timeout events never reach a reduced
// history by construction. See the package comment for why each choice
// canonicalizes.
func Fingerprint(reduced []*history.Event) uint64 {
	h := uint64(fnvOffset)
	for _, e := range reduced {
		if e.Kind != history.Completed {
			continue
		}
		h = fnvString(h, e.Node)
		h = fnvByte(h, 0x1f)
		h = fnvInt(h, int64(e.Decision))
		if e.Again {
			h = fnvByte(h, 1)
		} else {
			h = fnvByte(h, 0)
		}
		h = fnvByte(h, 0x1e)
	}
	return h
}

// maxForeignNodes bounds the per-type foreign-node sample in the drift
// table.
const maxForeignNodes = 16

type variantAgg struct {
	fp           uint64
	count        int64
	steps        int
	typeName     string
	minVersion   int
	maxVersion   int
	biased       int64
	nonCompliant int64
	done         int64
	path         []string // node IDs of the first instance observed
}

type nodeAgg struct {
	starts, completes, failures, timeouts, retries int64
	durations                                      *obs.Histogram
}

type edgeKey struct{ from, to string }

type typeAgg struct {
	instances    int64
	current      int64
	stale        int64
	biased       int64
	foreign      int64
	nonCompliant int64
	foreignNodes map[string]bool
}

// Miner is the streaming fold: Observe one instance at a time, then
// Report. Not safe for concurrent use — the facade drives one Miner
// per scan.
type Miner struct {
	opts Options

	// Reference: latest deployed version and its node set per type,
	// registered via Deployed before the scan.
	latest      map[string]int
	latestNodes map[string]map[string]bool

	instances int64
	done      int64
	biased    int64

	variants        map[uint64]*variantAgg
	variantOverflow int64
	nodes           map[string]*nodeAgg
	edges           map[edgeKey]int64
	edgeOverflow    int64
	types           map[string]*typeAgg
	shards          map[int]int64

	// Per-instance scratch, cleared between instances so the fold
	// allocates only on first use.
	lastStart  map[string]int64
	failedOpen map[string]int
}

// NewMiner creates a streaming miner.
func NewMiner(opts Options) *Miner {
	return &Miner{
		opts:        opts.withDefaults(),
		latest:      make(map[string]int),
		latestNodes: make(map[string]map[string]bool),
		variants:    make(map[uint64]*variantAgg),
		nodes:       make(map[string]*nodeAgg),
		edges:       make(map[edgeKey]int64),
		types:       make(map[string]*typeAgg),
		shards:      make(map[int]int64),
		lastStart:   make(map[string]int64),
		failedOpen:  make(map[string]int),
	}
}

// Deployed registers the latest deployed version of a process type and
// its node IDs — the reference the drift table compares every instance
// against. Call once per type before observing.
func (m *Miner) Deployed(typeName string, version int, nodes []string) {
	m.latest[typeName] = version
	set := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		set[n] = true
	}
	m.latestNodes[typeName] = set
}

// Observe folds one instance into the aggregates. The view's event
// slices alias live engine state (the caller runs Observe inside the
// instance lock via Instance.MineHistory) — Observe reads them fully
// and retains only the node-ID strings.
func (m *Miner) Observe(v engine.MineView, shard int) {
	m.instances++
	m.shards[shard]++
	if v.Done {
		m.done++
	}
	if v.Biased {
		m.biased++
	}

	// Drift classification against the registered reference.
	latest, known := m.latest[v.TypeName]
	stale := known && v.Version < latest
	foreign := false
	if set, ok := m.latestNodes[v.TypeName]; ok {
		for _, e := range v.Reduced {
			if e.Kind == history.Completed && !set[e.Node] {
				foreign = true
				t := m.typeAgg(v.TypeName)
				if len(t.foreignNodes) < maxForeignNodes {
					t.foreignNodes[e.Node] = true
				}
			}
		}
	}
	nonCompliant := stale || foreign || v.Biased

	t := m.typeAgg(v.TypeName)
	t.instances++
	if stale {
		t.stale++
	} else {
		t.current++
	}
	if v.Biased {
		t.biased++
	}
	if foreign {
		t.foreign++
	}
	if nonCompliant {
		t.nonCompliant++
	}

	// Variant table (capped).
	fp := Fingerprint(v.Reduced)
	va, ok := m.variants[fp]
	if !ok {
		if len(m.variants) >= m.opts.MaxVariants {
			m.variantOverflow++
		} else {
			va = &variantAgg{fp: fp, typeName: v.TypeName, minVersion: v.Version, maxVersion: v.Version}
			for _, e := range v.Reduced {
				if e.Kind == history.Completed {
					va.path = append(va.path, e.Node)
					va.steps++
				}
			}
			m.variants[fp] = va
		}
	}
	if va != nil {
		va.count++
		if v.Version < va.minVersion {
			va.minVersion = v.Version
		}
		if v.Version > va.maxVersion {
			va.maxVersion = v.Version
		}
		if v.Biased {
			va.biased++
		}
		if nonCompliant {
			va.nonCompliant++
		}
		if v.Done {
			va.done++
		}
	}

	// Per-node concentration and durations from the physical history:
	// every attempt counts here, including the ones the reduction
	// purges — exception concentration is about what actually happened.
	for _, e := range v.Events {
		na := m.nodeAgg(e.Node)
		switch e.Kind {
		case history.Started:
			na.starts++
			if m.failedOpen[e.Node] > 0 {
				na.retries++
				m.failedOpen[e.Node]--
			}
			if e.At > 0 {
				m.lastStart[e.Node] = e.At
			} else {
				delete(m.lastStart, e.Node) // unstamped start: never pair across it
			}
		case history.Completed:
			na.completes++
			if at := m.lastStart[e.Node]; at > 0 && e.At > at {
				na.durations.Observe(e.At - at)
			}
			delete(m.lastStart, e.Node)
		case history.Failed:
			na.failures++
			m.failedOpen[e.Node]++
			delete(m.lastStart, e.Node)
		case history.Timeout:
			na.timeouts++
		}
	}
	for k := range m.lastStart {
		delete(m.lastStart, k)
	}
	for k := range m.failedOpen {
		delete(m.failedOpen, k)
	}

	// Traversal edges between consecutive Completed events of the
	// logical history (capped).
	prev := ""
	for _, e := range v.Reduced {
		if e.Kind != history.Completed {
			continue
		}
		if prev != "" {
			k := edgeKey{prev, e.Node}
			if _, ok := m.edges[k]; ok || len(m.edges) < m.opts.MaxEdges {
				m.edges[k]++
			} else {
				m.edgeOverflow++
			}
		}
		prev = e.Node
	}
}

func (m *Miner) typeAgg(name string) *typeAgg {
	t, ok := m.types[name]
	if !ok {
		t = &typeAgg{foreignNodes: make(map[string]bool)}
		m.types[name] = t
	}
	return t
}

func (m *Miner) nodeAgg(name string) *nodeAgg {
	n, ok := m.nodes[name]
	if !ok {
		n = &nodeAgg{durations: obs.NewHistogram(28, 10)} // ~1µs .. ~2¼min
		m.nodes[name] = n
	}
	return n
}

// Report freezes the aggregates into the deterministic, JSON-ready
// report: variants by descending frequency (fingerprint ties
// ascending), nodes and drift rows sorted by name, edges by descending
// count.
func (m *Miner) Report() *Report {
	r := &Report{
		Instances:        m.instances,
		Done:             m.done,
		Biased:           m.biased,
		DistinctVariants: len(m.variants),
		VariantOverflow:  m.variantOverflow,
		EdgeOverflow:     m.edgeOverflow,
	}

	for shard, n := range m.shards {
		r.Shards = append(r.Shards, ShardStat{Shard: shard, Instances: n})
	}
	sort.Slice(r.Shards, func(i, j int) bool { return r.Shards[i].Shard < r.Shards[j].Shard })

	for _, va := range m.variants {
		r.Variants = append(r.Variants, Variant{
			Fingerprint:  fpString(va.fp),
			Count:        va.count,
			Steps:        va.steps,
			Type:         va.typeName,
			MinVersion:   va.minVersion,
			MaxVersion:   va.maxVersion,
			Biased:       va.biased,
			NonCompliant: va.nonCompliant,
			Done:         va.done,
			Path:         va.path,
		})
	}
	sort.Slice(r.Variants, func(i, j int) bool {
		if r.Variants[i].Count != r.Variants[j].Count {
			return r.Variants[i].Count > r.Variants[j].Count
		}
		return r.Variants[i].Fingerprint < r.Variants[j].Fingerprint
	})

	for k := 0; k < len(r.Variants) && k < m.opts.TopPaths; k++ {
		v := r.Variants[k]
		if v.Count == 0 || len(v.Path) == 0 {
			continue
		}
		r.HotPaths = append(r.HotPaths, Path{Fingerprint: v.Fingerprint, Count: v.Count, Path: v.Path})
	}

	for name, na := range m.nodes {
		d := na.durations.Snapshot()
		r.Nodes = append(r.Nodes, Node{
			Node:      name,
			Starts:    na.starts,
			Completes: na.completes,
			Failures:  na.failures,
			Timeouts:  na.timeouts,
			Retries:   na.retries,
			Durations: d,
			P50:       Quantile(d, 0.50),
			P90:       Quantile(d, 0.90),
			P99:       Quantile(d, 0.99),
		})
	}
	sort.Slice(r.Nodes, func(i, j int) bool { return r.Nodes[i].Node < r.Nodes[j].Node })

	for k, n := range m.edges {
		r.Edges = append(r.Edges, Edge{From: k.from, To: k.to, Count: n})
	}
	sort.Slice(r.Edges, func(i, j int) bool {
		if r.Edges[i].Count != r.Edges[j].Count {
			return r.Edges[i].Count > r.Edges[j].Count
		}
		if r.Edges[i].From != r.Edges[j].From {
			return r.Edges[i].From < r.Edges[j].From
		}
		return r.Edges[i].To < r.Edges[j].To
	})

	for name, t := range m.types {
		td := TypeDrift{
			Type:          name,
			LatestVersion: m.latest[name],
			Instances:     t.instances,
			Current:       t.current,
			Stale:         t.stale,
			Biased:        t.biased,
			Foreign:       t.foreign,
			NonCompliant:  t.nonCompliant,
		}
		for n := range t.foreignNodes {
			td.ForeignNodes = append(td.ForeignNodes, n)
		}
		sort.Strings(td.ForeignNodes)
		r.Drift = append(r.Drift, td)
	}
	sort.Slice(r.Drift, func(i, j int) bool { return r.Drift[i].Type < r.Drift[j].Type })

	return r
}

// Quantile reads the q-quantile (0 < q <= 1) off a histogram snapshot:
// the upper bound of the bucket where the cumulative count crosses the
// rank, -1 when it lands in the unbounded final bucket, 0 for an empty
// histogram. Power-of-two bucket bounds make this an upper estimate
// within one octave — the right fidelity for hot-spot ranking.
func Quantile(h obs.HistogramSnapshot, q float64) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(q * float64(h.Count))
	if float64(rank) < q*float64(h.Count) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range h.Buckets {
		cum += n
		if cum >= rank {
			return h.Bounds[i]
		}
	}
	return -1
}
