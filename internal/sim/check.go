package sim

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	"adept2/internal/engine"
	"adept2/internal/org"
	"adept2/internal/worklist"
)

// System is what Summary and a Ledger read of an *adept2.System (sim cannot
// import adept2: the tests of packages adept2 imports import sim).
type System interface {
	Instance(id string) (*engine.Instance, bool)
	Instances() []*engine.Instance
	Org() org.Reader
	WorkItems(user string) []*worklist.Item
	DurableWatermarks() []int
}

// Summary renders the observable state of a system deterministically: per
// instance, in key order (engine.CompareInstanceIDs), its flags, bias,
// data, every history event and per node its marking and exception state,
// and every user's worklist. An event's wall-clock stamp is left out, so
// two systems driven through the same commands at different times, or a
// system and its recovery, summarize alike.
func Summary(sys System) string {
	var b strings.Builder
	insts := sys.Instances()
	slices.SortFunc(insts, func(a, c *engine.Instance) int { return engine.CompareInstanceIDs(a.ID(), c.ID()) })
	for _, inst := range insts {
		data, _ := json.Marshal(inst.DataSnapshot()) // what cannot be encoded is refused before it is stored
		fmt.Fprintf(&b, "%s type=%s v=%d done=%v susp=%v hist=%d migr=%d biased=%v ops=%d\n  data %s\n",
			inst.ID(), inst.TypeName(), inst.Version(), inst.Done(), inst.Suspended(),
			inst.HistoryLen(), inst.Migrations(), inst.Biased(), len(inst.BiasOps()), data)
		m := inst.MarkingSnapshot() // a sealed instance derives it once, not once a node
		for _, id := range inst.View().NodeIDs() {
			dl, _ := inst.Deadline(id)
			ra, _ := inst.RetryDue(id)
			fmt.Fprintf(&b, "  %s st=%s dl=%d ra=%d f=%d esc=%v cp=%v\n",
				id, m.Node(id), dl, ra, inst.FailureCount(id),
				inst.Escalated(id), inst.PendingCompensation(id))
		}
		for _, ev := range inst.HistoryEvents() {
			values, _ := ev.Values.AppendJSON(nil)
			fmt.Fprintf(&b, "  #%d %s %s user=%s reason=%q values=%s\n",
				ev.Seq, ev.Kind, ev.Node, ev.User, ev.Reason, values)
		}
	}
	for _, user := range sys.Org().Users() {
		for _, it := range sys.WorkItems(user) {
			// claimed= is the starter (ClaimedBy); a new label would move
			// every digest CI pins.
			fmt.Fprintf(&b, "wl %s %s role=%s state=%s claimed=%s\n",
				user, it.ID, it.Role, it.State, it.ClaimedBy)
		}
	}
	return b.String()
}

// Diff returns the first eight differing lines of two summaries, "" when
// they are equal.
func Diff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	line := func(s []string, i int) string {
		if i < len(s) {
			return s[i]
		}
		return ""
	}
	var out []string
	for i := 0; i < max(len(w), len(g)) && len(out) < 8; i++ {
		if lw, lg := line(w, i), line(g, i); lw != lg {
			out = append(out, fmt.Sprintf("-%s\n+%s", lw, lg))
		}
	}
	return strings.Join(out, "\n")
}

// Ledger records what a system acknowledged (a nil Submit, SubmitBatch or
// receipt Wait): the created instances, each acknowledged instance's history
// length and completion, and every shard's durable watermark at each
// acknowledgement, which covers every acknowledged receipt's seq. It reads
// no file. The zero value is ready.
type Ledger struct {
	hist  map[string]int // acknowledged instance -> history length (0 for a create alone)
	done  map[string]bool
	marks []int
}

// Created records an acknowledged create.
func (l *Ledger) Created(id string) { l.record(id, 0, false) }

// Ack records an acknowledgement: every shard's durable watermark now and,
// for each named instance sys holds, its history length and completion now.
// Name only instances whose every applied command is acknowledged.
func (l *Ledger) Ack(sys System, insts ...string) {
	for k, m := range sys.DurableWatermarks() {
		if k == len(l.marks) {
			l.marks = append(l.marks, m)
		}
		l.marks[k] = max(l.marks[k], m)
	}
	for _, id := range insts {
		if inst, ok := sys.Instance(id); ok {
			l.record(id, inst.HistoryLen(), inst.Done())
		}
	}
}

// AckAll is Ack of every instance sys holds: what a clean reopen, or a
// command that may touch any instance, acknowledges.
func (l *Ledger) AckAll(sys System) {
	for _, inst := range sys.Instances() {
		l.Ack(sys, inst.ID())
	}
}

func (l *Ledger) record(id string, hist int, done bool) {
	if l.hist == nil {
		l.hist, l.done = make(map[string]int), make(map[string]bool)
	}
	l.hist[id] = max(l.hist[id], hist)
	l.done[id] = l.done[id] || done
}

// Check returns an error unless the recovered system holds everything
// recorded: every acknowledged instance with at least its acknowledged
// history and completion, and every shard at or past its recorded
// watermark.
func (l *Ledger) Check(recovered System) error {
	ids := make([]string, 0, len(l.hist))
	for id := range l.hist {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		inst, ok := recovered.Instance(id)
		switch {
		case !ok:
			return fmt.Errorf("acknowledged instance %s lost", id)
		case inst.HistoryLen() < l.hist[id]:
			return fmt.Errorf("instance %s lost acknowledged history: %d events, %d acknowledged", id, inst.HistoryLen(), l.hist[id])
		case l.done[id] && !inst.Done():
			return fmt.Errorf("instance %s lost its acknowledged completion", id)
		}
	}
	marks := recovered.DurableWatermarks()
	for k, m := range l.marks {
		if k >= len(marks) || marks[k] < m {
			return fmt.Errorf("shard %d recovered below its acknowledged watermark %d (durable %v)", k, m, marks)
		}
	}
	return nil
}
