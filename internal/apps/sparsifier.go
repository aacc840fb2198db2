package apps

import (
	"math"
	"math/rand"

	"parlap/internal/graph"
	"parlap/internal/matrix"
	"parlap/internal/par"
	"parlap/internal/solver"
)

// SpectralSparsifier implements Spielman–Srivastava sampling by effective
// resistances [SS08], the first application in the paper's introduction:
// approximate all R_eff(u,v) with k = O(log n) Laplacian solves via a
// Johnson–Lindenstrauss sketch of W^{1/2}·B·L⁺, then keep q samples drawn
// with probability proportional to w_e·R_eff(e), reweighted to be unbiased.
//
// The output H satisfies (1−ε)·L_G ⪯ L_H ⪯ (1+ε)·L_G whp for
// q = O(n log n/ε²); callers choose q directly.
func SpectralSparsifier(g *graph.Graph, q, jlDims int, seed int64) (*graph.Graph, error) {
	n := g.N
	m := len(g.Edges)
	if jlDims <= 0 {
		jlDims = int(math.Ceil(8 * math.Log(float64(n)+2)))
	}
	sol, err := solver.New(g, solver.DefaultChainParams(), nil)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	// Sketch rows: z_i = L⁺·(Bᵀ W^{1/2} q_i) with q_i ∈ {±1/√k}^m.
	// Generate the random signs deterministically per (row, edge).
	zs := make([][]float64, jlDims)
	scale := 1 / math.Sqrt(float64(jlDims))
	seeds := make([]int64, jlDims)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	for i := 0; i < jlDims; i++ {
		rrow := rand.New(rand.NewSource(seeds[i]))
		b := make([]float64, n)
		for eIdx, e := range g.Edges {
			s := scale
			if rrow.Intn(2) == 0 {
				s = -s
			}
			c := s * math.Sqrt(e.W)
			b[e.U] += c
			b[e.V] -= c
			_ = eIdx
		}
		x, _ := sol.Solve(b, 1e-8)
		zs[i] = x
	}
	// Approximate leverage scores w_e·R_eff(e) = w_e·‖Z(χ_u − χ_v)‖².
	lev := make([]float64, m)
	par.ForChunkedW(0, m, func(lo, hi int) {
		for eIdx := lo; eIdx < hi; eIdx++ {
			e := g.Edges[eIdx]
			r := 0.0
			for i := 0; i < jlDims; i++ {
				d := zs[i][e.U] - zs[i][e.V]
				r += d * d
			}
			lev[eIdx] = e.W * r
		}
	})
	total := 0.0
	for _, l := range lev {
		total += l
	}
	if total <= 0 {
		return graph.FromEdges(n, nil), nil
	}
	// Sample q edges with replacement ∝ leverage; aggregate weights.
	cum := make([]float64, m+1)
	for i, l := range lev {
		cum[i+1] = cum[i] + l
	}
	acc := make(map[int]float64)
	for s := 0; s < q; s++ {
		x := rng.Float64() * total
		// Binary search in the cumulative table.
		lo, hi := 0, m
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid+1] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		pe := lev[lo] / total
		acc[lo] += g.Edges[lo].W / (float64(q) * pe)
	}
	var edges []graph.Edge
	for id, w := range acc {
		e := g.Edges[id]
		edges = append(edges, graph.Edge{U: e.U, V: e.V, W: w})
	}
	return graph.FromEdges(n, edges), nil
}

// QuadFormDistortion measures max over probe vectors of
// |xᵀL_H x / xᵀL_G x − 1| — the empirical spectral-approximation quality of
// a sparsifier on random mean-zero probes.
func QuadFormDistortion(g, h *graph.Graph, probes int, seed int64) float64 {
	lg := matrix.LaplacianOf(g)
	lh := matrix.LaplacianOf(h)
	rng := rand.New(rand.NewSource(seed))
	worst := 0.0
	for p := 0; p < probes; p++ {
		x := make([]float64, g.N)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		matrix.ProjectOutConstant(x)
		qg := lg.QuadForm(x)
		if qg <= 0 {
			continue
		}
		d := math.Abs(lh.QuadForm(x)/qg - 1)
		if d > worst {
			worst = d
		}
	}
	return worst
}
