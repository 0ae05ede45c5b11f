package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// The reference kernel: a fixed piece of standard-library work of the
// engine's character — string-keyed map inserts, small allocations, JSON
// encode and decode, a sort. It is not repository code, so a change to the
// repository cannot move it; the host's mood moves it as it moves the
// engine (README.md, "Noise budget"). Only setup_s is scaled by it.

// refNominalMS is the kernel's time on this sandbox when it is quiet, so
// that a quiet run's setup_s is plain CPU seconds.
const refNominalMS = 0.9

type refRecord struct {
	Instance string         `json:"instance"`
	Node     string         `json:"node"`
	User     string         `json:"user"`
	Outputs  map[string]any `json:"outputs,omitempty"`
	At       int64          `json:"at"`
}

// refKernel runs the reference work once and returns its CPU time in ms.
func refKernel() float64 {
	const n = 300
	start := cpuTime()
	byID := make(map[string]*refRecord, n)
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		r := &refRecord{Instance: fmt.Sprintf("inst-%06d", (i*7919)%n), Node: "get_order", User: "ann", Outputs: map[string]any{"out": "order"}, At: int64(i)}
		byID[r.Instance] = r
		blob, _ := json.Marshal(r)
		var back refRecord
		_ = json.Unmarshal(blob, &back)
		ids = append(ids, back.Instance)
	}
	sort.Strings(ids)
	if len(byID) != n || ids[0] != "inst-000000" {
		panic("bench: reference kernel miscounted")
	}
	return float64(cpuTime()-start) / 1e6
}
