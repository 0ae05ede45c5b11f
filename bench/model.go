package main

import (
	"fmt"
	"math/rand"

	"adept2"
	"adept2/internal/sim"
)

// The generator's model of the population. Every command the benchmark
// submits comes from here, computed from the seed before the system sees
// it, and the model predicts what the system must answer: which instance
// ID a create is assigned, which ad-hoc changes apply, how Evolve
// classifies each instance, when an instance is done. A reply the model
// did not predict is a failed operation.

// Activities of the Fig. 1 online-order process in canonical order, with
// the three an adaptation can add: quality_check (a disjoint ad-hoc
// bias), send_brochure (the conflicting I2 bias) and send_questions (the
// type change ΔT).
const (
	nGet = iota
	nQuality
	nCollect
	nBrochure
	nCompose
	nQuestions
	nConfirm
	nPack
	nDeliver
	numNodes
)

var nodeNames = [numNodes]string{
	"get_order", "quality_check", "collect_data", "send_brochure",
	"compose_order", "send_questions", "confirm_order", "pack_goods", "deliver_goods",
}

// nodeUsers lists the two users of sim.Org holding each activity's role.
var nodeUsers = [numNodes][2]string{
	nGet: {"ann", "cyn"}, nQuality: {"bob", "cyn"}, nCollect: {"ann", "cyn"},
	nBrochure: {"ann", "dan"}, nCompose: {"bob", "cyn"}, nQuestions: {"ann", "dan"},
	nConfirm: {"ann", "dan"}, nPack: {"bob", "cyn"}, nDeliver: {"bob", "dan"},
}

var users = []string{"ann", "bob", "cyn", "dan"}

const (
	biasNone = iota
	biasDisjoint
	biasConflict
)

// orders[bias][v2] is the one linearisation the generator drives for that
// variant. The conflicting bias adds the sync edge confirm→compose, so
// its instances confirm first; ΔT puts send_questions before confirm.
var orders = func() (o [3][2][]uint8) {
	for bias := range o {
		for v2 := range o[bias] {
			seq := []uint8{nGet}
			if bias == biasDisjoint {
				seq = append(seq, nQuality)
			}
			seq = append(seq, nCollect)
			if bias == biasConflict {
				seq = append(seq, nBrochure, nConfirm, nCompose)
			} else {
				seq = append(seq, nCompose)
				if v2 == 1 {
					seq = append(seq, nQuestions)
				}
				seq = append(seq, nConfirm)
			}
			o[bias][v2] = append(seq, nPack, nDeliver)
		}
	}
	return o
}()

// instance is the model's view of one process instance.
type instance struct {
	id      string
	typ     int // index into model.types
	serial  int
	bias    uint8
	v2      bool
	created bool
	done    uint16 // bit per completed activity
	started int8   // activity started and not completed, or -1
	cmds    int    // lifecycle commands submitted for it: the create, starts and completes
}

func (in *instance) order() []uint8 {
	v2 := 0
	if in.v2 {
		v2 = 1
	}
	return orders[in.bias][v2]
}

func (in *instance) finished() bool { return in.done&(1<<nDeliver) != 0 }

// touched reports whether the activity was started or completed.
func (in *instance) touched(node uint8) bool {
	return in.done&(1<<node) != 0 || in.started == int8(node)
}

func (in *instance) nodeName(node uint8) string {
	if node == nQuality || node == nBrochure {
		return fmt.Sprintf("%s_%d", nodeNames[node], in.serial)
	}
	return nodeNames[node]
}

type model struct {
	rng     *rand.Rand
	types   []string
	evolved []bool      // per type: ΔT was applied, new instances are born on version 2
	all     []*instance // created instances in creation order; all[i].id is inst-%06d of i+1
	live    []*instance // the pool next() draws from
	salt    int
}

func newModel(seed int64, types []string) *model {
	rng := rand.New(rand.NewSource(seed))
	return &model{rng: rng, types: types, evolved: make([]bool, len(types)), salt: rng.Intn(2)}
}

// spawn adds an instance the system has not seen yet; its first command
// is the create, which is when it gets its ID.
func (m *model) spawn(typ int) *instance {
	return &instance{typ: typ, started: -1}
}

// step returns the instance's next command and advances the model.
func (m *model) step(in *instance) adept2.Command {
	in.cmds++
	if !in.created {
		// The engine numbers creates in order and so does the model; a
		// new instance is born on the type's latest version.
		in.created, in.v2 = true, m.evolved[in.typ]
		m.all = append(m.all, in)
		in.serial = len(m.all)
		in.id = fmt.Sprintf("inst-%06d", in.serial)
		return &adept2.CreateInstance{TypeName: m.types[in.typ]}
	}
	if in.started >= 0 {
		node := uint8(in.started)
		in.started = -1
		in.done |= 1 << node
		c := &adept2.CompleteActivity{Instance: in.id, Node: in.nodeName(node), User: m.user(in, node)}
		if node == nGet {
			c.Outputs = map[string]any{"out": "order-" + in.id}
		}
		return c
	}
	for _, node := range in.order() {
		if in.done&(1<<node) == 0 {
			in.started = int8(node)
			return &adept2.StartActivity{Instance: in.id, Node: in.nodeName(node), User: m.user(in, node)}
		}
	}
	panic("bench: step on a finished instance " + in.id)
}

func (m *model) user(in *instance, node uint8) string {
	return nodeUsers[node][(in.serial+int(node)+m.salt)&1]
}

// lifecycleLen is the number of commands that take an instance of the
// variant from nothing to done: the create, then start and complete of
// each activity — 13 for a plain version-1 order.
func (in *instance) lifecycleLen() int { return 1 + 2*len(in.order()) }

// next advances a random live instance by one command, replacing an
// instance that finishes with a fresh one of the same type.
func (m *model) next() adept2.Command {
	i := m.rng.Intn(len(m.live))
	in := m.live[i]
	cmd := m.step(in)
	if in.finished() {
		m.live[i] = m.spawn(in.typ)
	}
	return cmd
}

func (m *model) nextN(n int) []adept2.Command {
	cmds := make([]adept2.Command, n)
	for i := range cmds {
		cmds[i] = m.next()
	}
	return cmds
}

// biasOps builds the ad-hoc change of the kind for the instance, shaped
// like sim's population biases: the conflicting one is Fig. 1's I2 bias
// (an inserted activity plus a sync edge that later collides with ΔT).
func biasOps(in *instance, kind uint8) []adept2.Operation {
	if kind == biasDisjoint {
		return []adept2.Operation{&adept2.SerialInsert{
			Node: &adept2.Node{ID: in.nodeName(nQuality), Name: "Quality Check", Type: adept2.NodeActivity, Role: "warehouse", Template: "quality_check"},
			Pred: "get_order", Succ: "and-split_1",
		}}
	}
	return []adept2.Operation{
		&adept2.SerialInsert{
			Node: &adept2.Node{ID: in.nodeName(nBrochure), Name: "Send Brochure", Type: adept2.NodeActivity, Role: "sales", Template: "send_brochure"},
			Pred: "collect_data", Succ: "confirm_order",
		},
		&adept2.InsertSyncEdge{From: "confirm_order", To: "compose_order"},
	}
}

// canBias reports whether the model predicts the conflicting bias applies:
// a version-1, unbiased instance that has touched neither end of the new
// sync edge. (On version 2 the edge would close a cycle with ΔT's.)
func (in *instance) canBias() bool {
	return in.created && !in.v2 && in.bias == biasNone && !in.touched(nCompose) && !in.touched(nConfirm)
}

// predict is Evolve's classification of the instance under ΔT, in the
// order evolution.Manager decides it.
func (in *instance) predict() adept2.Outcome {
	switch {
	case in.finished():
		return adept2.AlreadyFinished
	case in.bias == biasConflict:
		return adept2.StructuralConflict
	case in.touched(nConfirm) || in.touched(nPack):
		return adept2.StateConflict
	default:
		return adept2.Migrated
	}
}

// population describes a workload's starting state.
type population struct {
	finished int  // per type: instances driven to done
	live     int  // per type: instances left running
	fig3     bool // live instances in sim.DefaultPopulationOpts shape, else uniform progress
}

// build returns the commands that create the starting population: per
// type, the finished instances, then the live ones. The shape is exact —
// the stated shares of each state and bias kind, or every progress equally
// often — and the seed only decides which instance gets which, so counts
// per command do not wander with the seed.
func (m *model) build(p population) []adept2.Command {
	var cmds []adept2.Command
	drive := func(in *instance, until func() bool) {
		for !until() {
			cmds = append(cmds, m.step(in))
		}
	}
	opts := sim.DefaultPopulationOpts(p.live)
	late, i1 := share(p.live, opts.LateFrac), share(p.live, 0.5)
	biased := share(p.live, opts.BiasedFrac)
	conflicting := share(biased, opts.ConflictingBiasFrac)
	for typ := range m.types {
		for i := 0; i < p.finished; i++ {
			in := m.spawn(typ)
			drive(in, in.finished)
		}
		states, biases := m.rng.Perm(p.live), m.rng.Perm(p.live)
		for i := 0; i < p.live; i++ {
			in := m.spawn(typ)
			m.live = append(m.live, in)
			cmds = append(cmds, m.step(in))
			if !p.fig3 {
				target := 1 + states[i]%(in.lifecycleLen()-1)
				drive(in, func() bool { return in.cmds >= target })
				continue
			}
			// Biases go on while the instance is fresh, where both kinds
			// apply, then it advances along the biased order.
			if biases[i] < biased {
				kind := uint8(biasDisjoint)
				if biases[i] < conflicting {
					kind = biasConflict
				}
				cmds = append(cmds, &adept2.AdHoc{Instance: in.id, Ops: biasOps(in, kind)})
				in.bias = kind
			}
			switch {
			case states[i] < late: // past the change region: a state conflict
				drive(in, func() bool { return in.done&(1<<nPack) != 0 })
			case states[i] < late+i1: // Fig. 1's I1: both branches under way
				drive(in, func() bool { return in.done&(1<<nCompose) != 0 })
			}
		}
	}
	return cmds
}

// share is the rounded fraction of n.
func share(n int, frac float64) int { return int(float64(n)*frac + 0.5) }
