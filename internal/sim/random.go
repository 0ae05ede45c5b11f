package sim

import (
	"fmt"
	"math/rand"
	"slices"

	"adept2/internal/bitset"
	"adept2/internal/change"
	"adept2/internal/engine"
	"adept2/internal/graph"
	"adept2/internal/model"
	"adept2/internal/state"
	"adept2/internal/verify"
)

// SchemaOpts tunes the random schema generator.
type SchemaOpts struct {
	// MaxDepth bounds block nesting.
	MaxDepth int
	// MaxSeq bounds the length of generated sequences.
	MaxSeq int
	// MaxBranch bounds the branch count of parallel/choice blocks.
	MaxBranch int
	// BlockProb is the probability that a fragment becomes a block instead
	// of a single activity (split evenly between parallel, choice, loop).
	BlockProb float64
	// DataElems is the number of generated data elements.
	DataElems int
	// DataProb is the per-activity probability of a mandatory read plus a
	// write on random elements.
	DataProb float64
	// SyncEdges is how many random sync edges the generator attempts to
	// place between parallel branches.
	SyncEdges int
}

// DefaultSchemaOpts returns moderate defaults producing schemas of roughly
// 20-60 nodes.
func DefaultSchemaOpts() SchemaOpts {
	return SchemaOpts{
		MaxDepth:  3,
		MaxSeq:    4,
		MaxBranch: 3,
		BlockProb: 0.45,
		DataElems: 4,
		DataProb:  0.3,
		SyncEdges: 2,
	}
}

// generator carries the state of one random schema construction.
type generator struct {
	rng     *rand.Rand
	b       *model.Builder
	opts    SchemaOpts
	nextAct int
	written []string // elements guaranteed written before the current point
}

// RandomSchema generates a verified block-structured schema. All
// activities are manual with role "worker"; gateway decisions are manual
// too (the Driver supplies them), so the generated schemas always pass the
// buildtime checks by construction.
func RandomSchema(rng *rand.Rand, name string, opts SchemaOpts) *model.Schema {
	g := &generator{rng: rng, b: model.NewBuilder(name), opts: opts}
	for i := 0; i < opts.DataElems; i++ {
		g.b.DataElement(fmt.Sprintf("d%d", i), model.TypeString)
	}
	// A leading writer activity guarantees every element has a value, so
	// random mandatory reads downstream always verify.
	init := g.b.Activity("a0", "a0", model.WithRole("worker"))
	g.nextAct = 1
	for i := 0; i < opts.DataElems; i++ {
		elem := fmt.Sprintf("d%d", i)
		g.b.Write("a0", elem, "out_"+elem)
		g.written = append(g.written, elem)
	}
	root := g.b.Seq(init, g.seq(opts.MaxDepth))
	s, err := g.b.Build(root)
	if err != nil {
		panic(fmt.Sprintf("sim: random schema: %v", err))
	}
	g.addSyncEdges(s)
	if err := verify.Err(s); err != nil {
		panic(fmt.Sprintf("sim: random schema failed verification: %v", err))
	}
	return s
}

func (g *generator) seq(depth int) model.Fragment {
	n := 1 + g.rng.Intn(g.opts.MaxSeq)
	frags := make([]model.Fragment, 0, n)
	for i := 0; i < n; i++ {
		frags = append(frags, g.fragment(depth))
	}
	return g.b.Seq(frags...)
}

func (g *generator) fragment(depth int) model.Fragment {
	if depth <= 0 || g.rng.Float64() >= g.opts.BlockProb {
		return g.activity()
	}
	switch g.rng.Intn(3) {
	case 0: // parallel block
		n := 2 + g.rng.Intn(g.opts.MaxBranch-1)
		branches := make([]model.Fragment, 0, n)
		for i := 0; i < n; i++ {
			branches = append(branches, g.seq(depth-1))
		}
		return g.b.Parallel(branches...)
	case 1: // choice block; reads inside branches stay safe because only
		// guaranteed-written elements are read (see activity).
		n := 2 + g.rng.Intn(g.opts.MaxBranch-1)
		branches := make([]model.Fragment, 0, n)
		for i := 0; i < n; i++ {
			branches = append(branches, g.seq(depth-1))
		}
		return g.b.Choice("", branches...)
	default: // loop block, bounded
		return g.b.Loop(g.seq(depth-1), "", 3)
	}
}

func (g *generator) activity() model.Fragment {
	id := fmt.Sprintf("a%d", g.nextAct)
	g.nextAct++
	frag := g.b.Activity(id, id, model.WithRole("worker"))
	if g.opts.DataElems > 0 && g.rng.Float64() < g.opts.DataProb {
		// Mandatory read of a guaranteed element, write of a random one.
		read := g.written[g.rng.Intn(len(g.written))]
		write := fmt.Sprintf("d%d", g.rng.Intn(g.opts.DataElems))
		g.b.Read(id, read, "in", true)
		g.b.Write(id, write, "out")
	}
	return frag
}

// addSyncEdges tries to add random sync edges between parallel branches,
// keeping only those the verifier accepts.
func (g *generator) addSyncEdges(s *model.Schema) {
	info, err := graph.Analyze(s)
	if err != nil {
		return
	}
	var andBlocks []*graph.Block
	for _, blk := range info.Blocks() {
		if blk.Kind == model.NodeANDSplit {
			andBlocks = append(andBlocks, blk)
		}
	}
	if len(andBlocks) == 0 {
		return
	}
	for attempt := 0; attempt < g.opts.SyncEdges*3; attempt++ {
		blk := andBlocks[g.rng.Intn(len(andBlocks))]
		if len(blk.Branches) < 2 {
			continue
		}
		i := g.rng.Intn(len(blk.Branches))
		j := g.rng.Intn(len(blk.Branches))
		if i == j {
			continue
		}
		from := randomMember(g.rng, info.Topology(), blk.Branches[i])
		to := randomMember(g.rng, info.Topology(), blk.Branches[j])
		if from == "" || to == "" {
			continue
		}
		e := &model.Edge{From: from, To: to, Type: model.EdgeSync}
		if s.HasEdge(e.Key()) {
			continue
		}
		if err := s.AddEdge(e); err != nil {
			continue
		}
		if res := verify.Check(s); !res.OK() {
			_ = s.RemoveEdge(e.Key())
		}
	}
}

func randomMember(rng *rand.Rand, topo *model.Topology, set bitset.Set) string {
	ids := make([]string, 0, set.Count())
	for i := set.Next(0); i >= 0; i = set.Next(i + 1) {
		ids = append(ids, topo.ID(model.NodeIdx(i)))
	}
	if len(ids) == 0 {
		return ""
	}
	// Deterministic order before random pick keeps runs reproducible.
	slices.Sort(ids)
	return ids[rng.Intn(len(ids))]
}

// Driver advances instances by completing random enabled work with random
// valid data, standing in for the users of a production deployment.
type Driver struct {
	Rng *rand.Rand
	Eng *engine.Engine
	// LoopAgainProb is the probability a manual loop end iterates.
	LoopAgainProb float64
}

// NewDriver returns a driver with moderate defaults.
func NewDriver(rng *rand.Rand, e *engine.Engine) *Driver {
	return &Driver{Rng: rng, Eng: e, LoopAgainProb: 0.3}
}

// Step completes one random enabled node of the instance. It returns false
// when nothing is enabled (the instance finished or waits on nothing).
func (d *Driver) Step(inst *engine.Instance) (bool, error) {
	if inst.Done() {
		return false, nil
	}
	v := inst.View()
	marking := inst.MarkingSnapshot()
	enabled := marking.NodesInState(state.Activated)
	if len(enabled) == 0 {
		return false, nil
	}
	node := enabled[d.Rng.Intn(len(enabled))]
	n, _ := v.Node(node)

	var opts []engine.CompleteOption
	switch n.Type {
	case model.NodeXORSplit:
		outs := model.OutControlEdges(v, node)
		opts = append(opts, engine.WithDecision(outs[d.Rng.Intn(len(outs))].Code))
	case model.NodeLoopEnd:
		opts = append(opts, engine.WithLoopAgain(d.Rng.Float64() < d.LoopAgainProb))
	}
	outputs := d.randomOutputs(v, node)
	user := d.userFor(n)
	if err := d.Eng.CompleteActivity(inst.ID(), node, user, outputs, opts...); err != nil {
		return false, fmt.Errorf("sim: step %s/%s: %w", inst.ID(), node, err)
	}
	return true, nil
}

// Advance performs up to n random steps.
func (d *Driver) Advance(inst *engine.Instance, n int) error {
	for i := 0; i < n; i++ {
		ok, err := d.Step(inst)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
	return nil
}

// RunToCompletion drives the instance until it finishes (bounded by a
// generous step budget to catch livelocks in tests).
func (d *Driver) RunToCompletion(inst *engine.Instance) error {
	for i := 0; i < 100000; i++ {
		ok, err := d.Step(inst)
		if err != nil {
			return err
		}
		if !ok {
			if !inst.Done() {
				return fmt.Errorf("sim: instance %s stuck (nothing enabled, not done)", inst.ID())
			}
			return nil
		}
	}
	return fmt.Errorf("sim: instance %s exceeded step budget", inst.ID())
}

func (d *Driver) randomOutputs(v model.SchemaView, node string) map[string]any {
	var out map[string]any
	for _, de := range v.DataEdgesOf(node) {
		if de.Access != model.Write {
			continue
		}
		if out == nil {
			out = make(map[string]any)
		}
		elem, _ := v.DataElement(de.Element)
		switch elem.Type {
		case model.TypeInt:
			out[de.Parameter] = int64(d.Rng.Intn(10))
		case model.TypeBool:
			out[de.Parameter] = d.Rng.Intn(2) == 0
		case model.TypeFloat:
			out[de.Parameter] = d.Rng.Float64()
		default:
			out[de.Parameter] = fmt.Sprintf("v%d", d.Rng.Intn(1000))
		}
	}
	return out
}

func (d *Driver) userFor(n *model.Node) string {
	if n.Role == "" {
		return ""
	}
	users := d.Eng.Org().UsersInRole(n.Role)
	if len(users) == 0 {
		return ""
	}
	return users[d.Rng.Intn(len(users))]
}

// RandomAdHocOps proposes a random ad-hoc change against the given view.
// The proposal is structurally plausible but not guaranteed applicable;
// callers feed it through change.ApplyAdHoc (or the compliance property
// harness) and treat rejections as part of the experiment.
func RandomAdHocOps(rng *rand.Rand, v model.SchemaView, seq int) []change.Operation {
	activities := activityIDs(v)
	if len(activities) == 0 {
		return nil
	}
	pick := func() string { return activities[rng.Intn(len(activities))] }
	newNode := func() *model.Node {
		id := fmt.Sprintf("x%d_%d", seq, rng.Intn(1_000_000))
		return &model.Node{ID: id, Name: id, Type: model.NodeActivity, Role: "worker", Template: "tpl_" + id}
	}
	switch rng.Intn(6) {
	case 0: // serial insert on a random control edge
		edges := controlEdges(v)
		e := edges[rng.Intn(len(edges))]
		return []change.Operation{&change.SerialInsert{Node: newNode(), Pred: e.From, Succ: e.To}}
	case 1: // parallel insert around a single random activity
		a := pick()
		return []change.Operation{&change.ParallelInsert{Node: newNode(), From: a, To: a}}
	case 2: // delete a random activity
		return []change.Operation{&change.DeleteActivity{ID: pick()}}
	case 3: // sync edge between two random activities
		return []change.Operation{&change.InsertSyncEdge{From: pick(), To: pick()}}
	case 4: // staff reassignment
		return []change.Operation{&change.UpdateStaffAssignment{Activity: pick(), NewRole: "worker"}}
	default: // move an activity onto a random control edge
		edges := controlEdges(v)
		e := edges[rng.Intn(len(edges))]
		return []change.Operation{&change.MoveActivity{ID: pick(), NewPred: e.From, NewSucc: e.To}}
	}
}

func activityIDs(v model.SchemaView) []string {
	var ids []string
	for _, id := range v.NodeIDs() {
		n, _ := v.Node(id)
		if n.Type == model.NodeActivity && !n.Auto {
			ids = append(ids, id)
		}
	}
	return ids
}

func controlEdges(v model.SchemaView) []*model.Edge {
	var es []*model.Edge
	for _, e := range v.Edges() {
		if e.Type == model.EdgeControl {
			es = append(es, e)
		}
	}
	return es
}
