package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// values collects one metric of one workload over a set's end-to-end runs.
func values(set []*runResult, workload, name string) []float64 {
	var vs []float64
	for _, r := range set {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m := r.find(name); m != nil {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// verdict applies one metric's bound to two sets of runs. "worse" and
// "better" are the change's median against the parent's by more than the
// bound; when either side's own spread (inter-quartile range over median)
// is wider than the bound the pair is "unresolved" rather than unchanged,
// unless every run of b reads better than every run of a.
func verdict(m specMetric, va, vb []float64) (string, float64) {
	q1a, ma, q3a := quartiles(va)
	q1b, mb, q3b := quartiles(vb)
	sign := 1.0 // lower is better: a rise is worse
	if m.Better == "higher" {
		sign = -1
	}
	worse := sign * (mb - ma) / math.Abs(ma)
	spread := math.Max((q3a-q1a)/math.Abs(ma), (q3b-q1b)/math.Abs(mb))
	if spread > m.Bound {
		sa, sb := append([]float64(nil), va...), append([]float64(nil), vb...)
		sort.Float64s(sa)
		sort.Float64s(sb)
		if (sign > 0 && sb[len(sb)-1] < sa[0]) || (sign < 0 && sb[0] > sa[len(sa)-1]) {
			return "better", worse
		}
		return "unresolved", worse
	}
	switch {
	case worse > m.Bound:
		return "worse", worse
	case worse < -m.Bound:
		return "better", worse
	}
	return "within bound", worse
}

// compareSets prints one row per (end-to-end metric, workload) with both
// sides' medians and quartiles and a verdict, one fail_share row per
// workload (any rise is worse), and every exact count that differs between
// runs of the same workload, pass and seed. It returns 1 when anything is
// worse, missing or unequal, else 0; unresolved pairs are listed and
// counted but do not fail the comparison.
func compareSets(spec *benchSpec, pathA, pathB string, w io.Writer) int {
	var sets [2][]*runResult
	for i, path := range []string{pathA, pathB} {
		runs, err := readResults(path)
		if err != nil {
			fmt.Fprintln(w, "bench:", err)
			return 1
		}
		sets[i] = runs
	}
	return compareRuns(spec, sets[0], sets[1], w)
}

func compareRuns(spec *benchSpec, a, b []*runResult, w io.Writer) int {
	bad, unresolved := 0, 0
	fmt.Fprintf(w, "%-14s %-16s %5s | %11s %11s %11s | %11s %11s %11s | %8s  %s\n",
		"workload", "metric", "bound", "a q1", "a median", "a q3", "b q1", "b median", "b q3", "b vs a", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-16s missing (%d runs in a, %d in b)\n", wl.Name, m.Name, len(va), len(vb))
				bad++
				continue
			}
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			v, worse := verdict(m, va, vb)
			switch v {
			case "worse":
				bad++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(w, "%-14s %-16s %5.2f | %11.5g %11.5g %11.5g | %11.5g %11.5g %11.5g | %+7.1f%%  %s (%d vs %d runs, %s is better)\n",
				wl.Name, m.Name, m.Bound, q1a, ma, q3a, q1b, mb, q3b, 100*worse, v, len(va), len(vb), m.Better)
		}
		share := func(set []*runResult) (float64, int) {
			att, failed := 0, 0
			for _, r := range set {
				if r.Workload == wl.Name {
					att, failed = att+r.Attempted, failed+r.Failed
				}
			}
			if att == 0 {
				return 0, 0
			}
			return float64(failed) / float64(att), att
		}
		fa, na := share(a)
		fb, nb := share(b)
		v := "equal"
		if fb > fa {
			v = "worse"
			bad++
		} else if fb < fa {
			v = "better"
		}
		fmt.Fprintf(w, "%-14s %-16s   any | %35.6g | %35.6g | %8s  %s (%d vs %d ops)\n", wl.Name, "fail_share", fa, fb, "", v, na, nb)
	}

	// Exact counts: every run of one workload, pass and seed, on either
	// side, must report the same value.
	type key struct {
		workload string
		trace    bool
		seed     int64
		name     string
	}
	seen := map[key]float64{}
	compared, unequal := 0, 0
	for _, set := range [][]*runResult{a, b} {
		for _, r := range set {
			for _, m := range r.Metrics {
				if !m.Exact {
					continue
				}
				k := key{r.Workload, r.Trace, r.Seed, m.Name}
				if prev, ok := seen[k]; !ok {
					seen[k] = m.Value
				} else if compared++; prev != m.Value {
					unequal++
					fmt.Fprintf(w, "%-14s %-16s seed %d: exact count differs: %g vs %g\n", r.Workload, m.Name, r.Seed, prev, m.Value)
				}
			}
		}
	}
	bad += unequal
	fmt.Fprintf(w, "exact counts: %d repeated values compared, %d unequal\n", compared, unequal)
	fmt.Fprintf(w, "summary: %d worse, missing or unequal; %d unresolved (spread wider than the bound)\n", bad, unresolved)
	if bad > 0 {
		return 1
	}
	return 0
}
