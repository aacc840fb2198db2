package matrix

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"parlap/internal/graph"
)

// naiveLaplacian is the map-based reference for LaplacianOfW's definition:
// parallel edges summed in edge-list order, self-loops and zero weights
// dropped, and each non-empty row's diagonal the sum of its merged couplings
// in ascending neighbour order.
func naiveLaplacian(g *graph.Graph) (off map[[2]int]float64, diag []float64) {
	off = make(map[[2]int]float64)
	for _, e := range g.Edges {
		if e.U == e.V || e.W == 0 {
			continue
		}
		off[[2]int{e.U, e.V}] -= e.W
		off[[2]int{e.V, e.U}] -= e.W
	}
	rows := make([][]int, g.N)
	for k := range off {
		rows[k[0]] = append(rows[k[0]], k[1])
	}
	diag = make([]float64, g.N)
	for r, cols := range rows {
		sort.Ints(cols)
		for _, c := range cols {
			diag[r] -= off[[2]int{r, c}]
		}
	}
	return off, diag
}

// checkLaplacian compares a against the reference entry for entry, bitwise.
func checkLaplacian(t *testing.T, label string, g *graph.Graph, a *Sparse) {
	t.Helper()
	off, diag := naiveLaplacian(g)
	nnz := 0
	for r := 0; r < g.N; r++ {
		row := a.Col[a.Off[r]:a.Off[r+1]]
		if len(row) == 1 {
			t.Fatalf("%s: row %d holds a lone diagonal", label, r)
		}
		for i := a.Off[r]; i < a.Off[r+1]; i++ {
			c := int(a.Col[i])
			if i > a.Off[r] && a.Col[i-1] >= a.Col[i] {
				t.Fatalf("%s: row %d columns not strictly ascending", label, r)
			}
			want, ok := off[[2]int{r, c}]
			if c == r {
				want, ok = diag[r], true
			} else {
				nnz++
			}
			if !ok || a.Val[i] != want {
				t.Fatalf("%s: entry (%d,%d) = %v, reference %v (present %v)", label, r, c, a.Val[i], want, ok)
			}
		}
		if a.Diag[r] != diag[r] {
			t.Fatalf("%s: Diag[%d] = %v, reference %v", label, r, a.Diag[r], diag[r])
		}
	}
	if nnz != len(off) {
		t.Fatalf("%s: %d off-diagonals, reference %d", label, nnz, len(off))
	}
}

// randomMultigraph mixes everything the assembly must cope with: parallel
// edges in both orientations, self-loops, zero weights, isolated vertices
// (the top tenth of the id range) and one hub adjacent to hubDeg vertices.
func randomMultigraph(n, m, hubDeg int, weight func(*rand.Rand) float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	live := n - n/10
	edges := make([]graph.Edge, 0, m+hubDeg)
	for i := 0; i < m; i++ {
		e := graph.Edge{U: rng.Intn(live), V: rng.Intn(live), W: weight(rng)}
		switch rng.Intn(10) {
		case 0:
			e.V = e.U
		case 1:
			e.W = 0
		case 2, 3:
			if len(edges) > 0 {
				p := edges[rng.Intn(len(edges))]
				e.U, e.V = p.V, p.U
			}
		}
		edges = append(edges, e)
	}
	for i := 0; i < hubDeg; i++ {
		edges = append(edges, graph.Edge{U: 1 + rng.Intn(live-1), V: 0, W: weight(rng)})
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return graph.FromEdges(n, edges)
}

func TestLaplacianOfMatchesNaiveReference(t *testing.T) {
	inexact := func(rng *rand.Rand) float64 { return 0.01 + rng.ExpFloat64()*1e3 }
	dyadic := func(rng *rand.Rand) float64 { return float64(int64(1) << rng.Intn(30)) }
	for _, c := range []struct {
		name       string
		n, m, hub  int
		weight     func(*rand.Rand) float64
		exactOrder bool
	}{
		{"inexact", 3000, 9000, 2000, inexact, false},
		{"dyadic", 3000, 9000, 2000, dyadic, true},
		{"tiny", 7, 30, 3, inexact, false},
		{"edgeless", 50, 0, 0, inexact, false},
	} {
		g := randomMultigraph(c.n, c.m, c.hub, c.weight, 11)
		ref := LaplacianOfW(1, g)
		checkLaplacian(t, c.name, g, ref)
		for _, w := range []int{2, 4} {
			sameSparse(t, ref, LaplacianOfW(w, g), fmt.Sprintf("%s workers=%d", c.name, w))
		}
		if c.exactOrder {
			// Dyadic weights sum exactly, so any summation order agrees.
			deg := make([]float64, g.N)
			for _, e := range g.Edges {
				if e.U != e.V {
					deg[e.U] += e.W
					deg[e.V] += e.W
				}
			}
			for r := range deg {
				if ref.Diag[r] != deg[r] {
					t.Fatalf("%s: Diag[%d] = %v, weighted degree %v", c.name, r, ref.Diag[r], deg[r])
				}
			}
		}
	}
}

// TestLaplacianOfIgnoresEdgeOrder: without parallel edges nothing in the
// Laplacian depends on how the edge list was written down, so a snapshot
// restored against a re-ordered registration of the same CanonicalID
// rebuilds the same Lap bits.
func TestLaplacianOfIgnoresEdgeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 2000
	seen := make(map[[2]int]bool)
	var edges []graph.Edge
	for len(edges) < 8000 {
		u, v := rng.Intn(n), rng.Intn(n)
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		edges = append(edges, graph.Edge{U: u, V: v, W: 0.01 + rng.ExpFloat64()*1e3})
	}
	ref := LaplacianOf(graph.FromEdges(n, edges))
	for trial := 0; trial < 5; trial++ {
		mixed := append([]graph.Edge(nil), edges...)
		rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
		for i := range mixed {
			if rng.Intn(2) == 0 {
				mixed[i].U, mixed[i].V = mixed[i].V, mixed[i].U
			}
		}
		sameSparse(t, ref, LaplacianOf(graph.FromEdges(n, mixed)), fmt.Sprintf("trial %d", trial))
	}
}

// TestLaplacianOfAllocsIndependentOfSize: the assembly allocates its output
// and scratch arrays, a constant number of them whatever the edge count.
func TestLaplacianOfAllocsIndependentOfSize(t *testing.T) {
	unit := func(*rand.Rand) float64 { return 1 }
	small := randomMultigraph(3000, 9000, 100, unit, 1)
	large := randomMultigraph(3000, 90000, 2000, unit, 1)
	as := testing.AllocsPerRun(5, func() { LaplacianOfW(1, small) })
	al := testing.AllocsPerRun(5, func() { LaplacianOfW(1, large) })
	if as != al || al > 16 {
		t.Fatalf("LaplacianOfW allocates %v times on 9k edges, %v on 90k; want equal and <= 16", as, al)
	}
}

// TestTripletDuplicatesSumInInputOrder: 1e16 + 1 - 1e16 is 0 in that order
// and 1 in any order that cancels first.
func TestTripletDuplicatesSumInInputOrder(t *testing.T) {
	rows := []int{1, 0, 1, 1, 0}
	cols := []int{2, 0, 2, 2, 0}
	vals := []float64{1e16, 3, 1, -1e16, 4}
	for _, w := range []int{1, 4} {
		a, err := NewSparseFromTripletsW(w, 3, rows, cols, vals)
		if err != nil {
			t.Fatal(err)
		}
		if a.NNZ() != 2 || a.Val[0] != 7 || a.Val[1] != 0 || a.Diag[0] != 7 {
			t.Fatalf("workers=%d: Val %v Diag %v, want [7 0] and Diag[0]=7", w, a.Val, a.Diag)
		}
	}
}
