package matrix

import (
	"fmt"
	"math"

	"parlap/internal/graph"
)

// GrembanReduction maps a general SDD system A x = b to a Laplacian system
// on a double cover of A's entry graph ([Gre96, §7.1], cited by the paper as
// the O(m)-work, polylog-depth reduction):
//
//   - a negative off-diagonal A[i][j] = -w becomes edges (i,j) and (i',j'),
//   - a positive off-diagonal A[i][j] = +w becomes edges (i,j') and (i',j),
//   - diagonal slack s_i = A[i][i] − Σ_{j≠i}|A[i][j]| becomes edge (i,i')
//     of weight s_i/2,
//
// where i' = i+n is vertex i's mirror. Then L·[x; −x] = [b; −b], so solving
// the Laplacian system with right-hand side [b; −b] and averaging
// x = (y₁ − y₂)/2 recovers the SDD solution.
type GrembanReduction struct {
	N int // original dimension
	G *graph.Graph
	L *Sparse
}

// NewGrembanReductionW validates that a is SDD and constructs the double
// cover, running its CSR and Laplacian builds on the given worker count.
// Entries smaller than dropTol (relative) are treated as zero.
func NewGrembanReductionW(workers int, a *Sparse, dropTol float64) (*GrembanReduction, error) {
	if !a.IsSDD(1e-9) {
		return nil, fmt.Errorf("matrix: input is not symmetric diagonally dominant")
	}
	n := a.N
	var edges []graph.Edge
	slack := make([]float64, n)
	copy(slack, a.Diag)
	for r := 0; r < n; r++ {
		for i := a.Off[r]; i < a.Off[r+1]; i++ {
			c := int(a.Col[i])
			if c == r {
				continue
			}
			v := a.Val[i]
			if math.Abs(v) <= dropTol {
				continue
			}
			slack[r] -= math.Abs(v)
			if c < r {
				continue // each undirected pair handled once, from the lower id
			}
			if v < 0 {
				w := -v
				edges = append(edges,
					graph.Edge{U: r, V: c, W: w},
					graph.Edge{U: r + n, V: c + n, W: w})
			} else {
				edges = append(edges,
					graph.Edge{U: r, V: c + n, W: v},
					graph.Edge{U: r + n, V: c, W: v})
			}
		}
	}
	for i := 0; i < n; i++ {
		if slack[i] < 0 {
			if slack[i] > -1e-9*(1+a.Diag[i]) {
				slack[i] = 0
			} else {
				return nil, fmt.Errorf("matrix: negative diagonal slack %g at row %d", slack[i], i)
			}
		}
		if slack[i] > 0 {
			edges = append(edges, graph.Edge{U: i, V: i + n, W: slack[i] / 2})
		}
	}
	g := graph.FromEdgesW(workers, 2*n, edges)
	return &GrembanReduction{N: n, G: g, L: LaplacianOfW(workers, g)}, nil
}

// Lift maps the SDD right-hand side b to the double-cover right-hand side
// [b; −b].
func (gr *GrembanReduction) Lift(b []float64) []float64 {
	out := make([]float64, 2*gr.N)
	for i, v := range b {
		out[i] = v
		out[i+gr.N] = -v
	}
	return out
}

// Project maps a double-cover solution y back to the SDD solution
// x_i = (y_i − y_{i+n})/2.
func (gr *GrembanReduction) Project(y []float64) []float64 {
	out := make([]float64, gr.N)
	for i := range out {
		out[i] = (y[i] - y[i+gr.N]) / 2
	}
	return out
}

// IsLaplacian reports whether a already has Laplacian structure: zero row
// sums (within tol) and non-positive off-diagonals, in which case the
// Gremban reduction is unnecessary.
func IsLaplacian(a *Sparse, tol float64) bool {
	for r := 0; r < a.N; r++ {
		sum := 0.0
		for i := a.Off[r]; i < a.Off[r+1]; i++ {
			if int(a.Col[i]) != r && a.Val[i] > tol {
				return false
			}
			sum += a.Val[i]
		}
		if math.Abs(sum) > tol*(1+math.Abs(a.Diag[r])) {
			return false
		}
	}
	return true
}
