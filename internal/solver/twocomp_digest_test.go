package solver

import (
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/matrix"
)

// TestTwoComponentDigestSolve pins the exact solution bits of chain solves on
// a two-component graph (grid 40² beside pa:1000:3, 2600 vertices, so the
// top level's component-sorted order spans two par.ReduceGrain chunks and
// the second component starts inside the first chunk), with the default and
// a deep chain, at k = 1, 2 and 4 and at Workers 1 and 4. Every projection
// of these solves is per component, so a change to how the per-component
// means are folded or subtracted moves these digests. The right-hand sides
// carry a different mean on each component. Workers does not enter the
// digest: the solution bits are the same for every worker count.
func TestTwoComponentDigestSolve(t *testing.T) {
	grid := gen.Grid2D(40, 40)
	edges := append([]graph.Edge(nil), grid.Edges...)
	for _, e := range gen.PreferentialAttachment(1000, 3, 5).Edges {
		edges = append(edges, graph.Edge{U: e.U + grid.N, V: e.V + grid.N, W: e.W})
	}
	g := graph.FromEdges(grid.N+1000, edges)
	for _, tc := range []struct {
		name     string
		p        ChainParams
		minDepth int
		want     map[int]string // k -> digest of the k solution columns
	}{
		{"default", DefaultChainParams(), 0, map[int]string{
			1: "21772c870d0de963", 2: "61444703412c11d4", 4: "7b36dcbd0c802d60"}},
		{"deep", deepChainParams(g), 2, map[int]string{
			1: "ea186626a44f96cf", 2: "427ed24da7e8bc21", 4: "da63f71ac14ad53c"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewWithOptions(g, tc.p, Options{Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s.NumComp != 2 {
				t.Fatalf("graph has %d components, want 2", s.NumComp)
			}
			if d := s.Chain.Depth(); d < tc.minDepth {
				t.Fatalf("chain depth %d, want >= %d", d, tc.minDepth)
			}
			for k, want := range tc.want {
				rhs := offsetBlock(g.N, k, s.Comp, int64(31+k))
				for _, w := range []int{1, 4} {
					var out matrix.Block
					sts := s.SolveBlockTraced(rhs, &out, 1e-8, Options{Workers: w}, nil, nil)
					for j, st := range sts {
						if !st.Converged {
							t.Fatalf("k=%d workers=%d: lane %d did not converge: %+v", k, w, j, st)
						}
					}
					if got := vecDigest(out.Data()); got != want {
						t.Errorf("k=%d workers=%d: solution digest %s, want %s", k, w, got, want)
					}
				}
			}
		})
	}
}
