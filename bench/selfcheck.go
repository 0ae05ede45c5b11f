package main

import (
	"fmt"
	"os"
	"slices"
)

// runSelfcheck measures the current tree against itself: for every
// workload two interleaved sets of runs (A B A B …), each run on its own
// seed, exactly as a parent-against-change comparison would be made. It
// prints both medians, their difference and each set's quartile distance
// per workload × metric, and fails if a gated metric's difference or
// spread exceeds its bound — the benchmark cannot resolve a regression
// smaller than what it reports between two copies of the same code. The
// per-layer timings are printed too, without a verdict.
func runSelfcheck(o options) error {
	bad := 0
	all := slices.Concat(endToEnd, layerTimings)
	fmt.Printf("%-16s %-22s %14s %14s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "B vs A", "iqr A", "iqr B", "bound")
	for _, w := range workloads {
		if o.workload != "" && o.workload != w.name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*o.runs; i++ {
			ro := o
			ro.seed = o.seed + int64(i)
			r, err := measure(w, ro, nil)
			if err != nil {
				return err
			}
			for _, m := range all {
				if len(r.samples(m.name)) > 0 {
					sets[i%2][m.name] = append(sets[i%2][m.name], r.value(m))
				}
			}
			fmt.Fprintf(os.Stderr, "selfcheck: %s run %d/%d done\n", w.name, i+1, 2*o.runs)
		}
		for _, m := range all {
			a, b := sets[0][m.name], sets[1][m.name]
			if len(a) == 0 {
				continue
			}
			worse := (median(b) - median(a)) / median(a)
			if m.higher {
				worse = -worse
			}
			spreadA, spreadB := iqrShare(a), iqrShare(b)
			bound, verdict := "layer", ""
			if m.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*m.bound)
				if worse > m.bound || spreadA > m.bound || spreadB > m.bound {
					verdict = "  EXCEEDS"
					bad++
				}
			}
			fmt.Printf("%-16s %-22s %14.4f %14.4f %+7.2f%% %7.2f%% %7.2f%% %6s%s\n",
				w.name, m.name, median(a), median(b), 100*worse, 100*spreadA, 100*spreadB, bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d workload × metric pairs exceed their bound between two sets of runs of the same code", bad)
	}
	return nil
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method).
func iqrShare(vs []float64) float64 {
	s := sorted(vs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}
