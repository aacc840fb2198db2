package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs both passes of every workload twice at self-test sizes
// and holds the output to BENCHMARK.json: every listed metric emitted once
// with the listed unit, names well-formed, exact counts identical across
// two runs of one seed, and no failed operation.
func TestSmoke(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	outDir := t.TempDir()
	var setA, setB []*runResult
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, spec.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			var pair [2]*runResult
			for j := range pair {
				res, err := runWorkload(w, 1, 0.15, trace, true, outDir)
				if err != nil {
					t.Fatal(err)
				}
				pair[j] = res
			}
			a, b := pair[0], pair[1]
			setA, setB = append(setA, a), append(setB, b)
			if _, err := resultLine(spec, a); err != nil {
				t.Error(err)
			}
			if a.Failed != 0 || a.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", w.name, trace, a.Failed, a.Attempted, a.Failures)
			}
			if fs := a.find("fail_share"); fs == nil || fs.Value != 0 {
				t.Errorf("%s trace=%v: fail_share = %v", w.name, trace, fs)
			}
			for _, m := range a.Metrics {
				if !nameOK.MatchString(m.Name) || len(m.Name) > 64 {
					t.Errorf("%s: bad metric name %q", w.name, m.Name)
				}
				if m.Unit == "" {
					t.Errorf("%s: metric %s has no unit", w.name, m.Name)
				}
				if !m.Exact {
					continue
				}
				if again := b.find(m.Name); again == nil || again.Value != m.Value {
					t.Errorf("%s: exact count %s = %v, then %v on the same seed", w.name, m.Name, m.Value, again)
				}
			}
		}
	}

	var out bytes.Buffer
	compareRuns(spec, setA, setB, &out)
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			row := regexp.MustCompile(`(?m)^` + wl.Name + `\s+` + regexp.QuoteMeta(m.Name) + `\s`)
			if len(row.FindAllString(out.String(), -1)) != 1 {
				t.Errorf("-compare printed no single row for %s %s", wl.Name, m.Name)
			}
		}
	}
	if !strings.Contains(out.String(), " 0 unequal") {
		t.Errorf("-compare found unequal exact counts:\n%s", out.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "solve_s", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "rhs_per_s", Better: "higher", Bound: 0.10}
	base := []float64{1.00, 1.01, 0.99, 1.00}
	for _, c := range []struct {
		m    specMetric
		b    []float64
		want string
	}{
		{lower, []float64{1.02, 1.01, 1.00, 1.03}, "within bound"},
		{lower, []float64{1.20, 1.21, 1.19, 1.20}, "worse"},
		{lower, []float64{0.80, 0.81, 0.79, 0.80}, "better"},
		{higher, []float64{0.80, 0.81, 0.79, 0.80}, "worse"},
		{lower, []float64{0.9, 1.3, 1.0, 1.2}, "unresolved"},
		{lower, []float64{0.5, 0.9, 0.6, 0.8}, "better"}, // wide spread, but every run beats every base run
	} {
		if got, _ := verdict(c.m, base, c.b); got != c.want {
			t.Errorf("verdict(%s, %v) = %q, want %q", c.m.Name, c.b, got, c.want)
		}
	}
}
