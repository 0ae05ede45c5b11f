// Package monitor renders schemas, instance markings, and migration
// reports as text — the ADEPT2 demo's monitoring component (Fig. 3 of the
// paper), re-imagined for terminals instead of a GUI.
package monitor

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"adept2/internal/engine"
	"adept2/internal/evolution"
	"adept2/internal/graph"
	"adept2/internal/model"
	"adept2/internal/state"
)

// RenderSchema renders the schema as a topologically ordered node listing
// with edges and data flow.
func RenderSchema(v model.SchemaView) string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema %s (type %s, version %d)\n", v.SchemaID(), v.TypeName(), v.Version())
	order, err := graph.TopoOrder(v, graph.Control)
	if err != nil {
		order = v.NodeIDs()
	}
	topo := v.Topology()
	for _, id := range order {
		n, _ := v.Node(id)
		var attrs []string
		if n.Role != "" {
			attrs = append(attrs, "role="+n.Role)
		}
		if n.Auto {
			attrs = append(attrs, "auto")
		}
		if n.DecisionElement != "" {
			attrs = append(attrs, "decides-on="+n.DecisionElement)
		}
		attr := ""
		if len(attrs) > 0 {
			attr = " [" + strings.Join(attrs, ", ") + "]"
		}
		fmt.Fprintf(&b, "  %-12s %s%s\n", n.Type, id, attr)
		i, _ := topo.Idx(id)
		nt := topo.At(i)
		out := slices.Concat(nt.OutControlIdx(), nt.OutSyncIdx(), nt.OutLoopIdx())
		slices.Sort(out) // edge order
		for _, ei := range out {
			e := topo.EdgeAt(ei)
			switch e.Type {
			case model.EdgeControl:
				if n.Type == model.NodeXORSplit {
					fmt.Fprintf(&b, "      --%d--> %s\n", e.Code, e.To)
				} else {
					fmt.Fprintf(&b, "      -----> %s\n", e.To)
				}
			case model.EdgeSync:
				fmt.Fprintf(&b, "      ~sync~> %s\n", e.To)
			case model.EdgeLoop:
				fmt.Fprintf(&b, "      =loop=> %s\n", e.To)
			}
		}
	}
	if des := v.DataEdges(); len(des) > 0 {
		b.WriteString("  data flow:\n")
		for _, de := range des {
			fmt.Fprintf(&b, "      %s\n", de)
		}
	}
	return b.String()
}

// RenderInstance renders the marking of an instance: one line per node
// with a non-default state, plus progress statistics.
func RenderInstance(inst *engine.Instance) string {
	var b strings.Builder
	v := inst.View()
	m := inst.MarkingSnapshot()
	status := "running"
	if inst.Done() {
		status = "completed"
	}
	bias := ""
	if inst.Biased() {
		ops := inst.BiasOps()
		strs := make([]string, len(ops))
		for i, op := range ops {
			strs[i] = op.String()
		}
		bias = " biased{" + strings.Join(strs, "; ") + "}"
	}
	fmt.Fprintf(&b, "instance %s on %s v%d (%s)%s\n", inst.ID(), inst.TypeName(), inst.Version(), status, bias)
	order, err := graph.TopoOrder(v, graph.Control)
	if err != nil {
		order = v.NodeIDs()
	}
	for _, id := range order {
		if s := m.Node(id); s != state.NotActivated {
			fmt.Fprintf(&b, "  %-20s %s\n", id, s)
		}
	}
	return b.String()
}

// FormatReport renders a migration report in the shape of the paper's
// Fig. 3 window: a summary followed by per-instance rows with conflict
// details for the instances that stay behind.
func FormatReport(r *evolution.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "migration report: %s v%d -> v%d (%s check)\n",
		r.TypeName, r.FromVersion, r.ToVersion, r.Options.Mode)
	fmt.Fprintf(&b, "  instances considered: %d, elapsed: %s\n", r.Total(), r.Elapsed.Round(1000))
	for _, o := range evolution.Outcomes() {
		if n := r.Count(o); n > 0 {
			fmt.Fprintf(&b, "  %-20s %d\n", o.String()+":", n)
		}
	}
	b.WriteString("  ----\n")
	for _, res := range r.Results {
		line := fmt.Sprintf("  %-12s %-20s", res.Instance, res.Outcome)
		if res.Biased {
			line += " (ad-hoc modified)"
		}
		if res.Detail != "" {
			line += " " + res.Detail
		}
		b.WriteString(strings.TrimRight(line, " ") + "\n")
	}
	return b.String()
}

// SummarizeWorklists renders the worklists of all users, sorted.
func SummarizeWorklists(e *engine.Engine) string {
	var b strings.Builder
	users := e.Org().Users()
	sort.Strings(users)
	for _, u := range users {
		items := e.WorkItems(u)
		if len(items) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s:\n", u)
		for _, it := range items {
			fmt.Fprintf(&b, "  %s (%s, role %s)\n", it.ID, it.State, it.Role)
		}
	}
	if b.Len() == 0 {
		return "no work items\n"
	}
	return b.String()
}
