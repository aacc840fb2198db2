package solver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/matrix"
)

// requireLanesInRange fails unless every lane of z has, on every component
// of ci, a mean of at most 1e-12·max|z| over that lane.
func requireLanesInRange(t *testing.T, label string, z *matrix.Block, ci *matrix.CompIndex) {
	t.Helper()
	k := z.K()
	col := make([]float64, z.N())
	sums := make([]float64, ci.NumComp)
	cnt := make([]float64, ci.NumComp)
	for c := 0; c < k; c++ {
		z.ColInto(c, col)
		clear(sums)
		clear(cnt)
		scale := 0.0
		for v, x := range col {
			sums[ci.Comp[v]] += x
			cnt[ci.Comp[v]]++
			scale = max(scale, math.Abs(x))
		}
		if scale == 0 {
			t.Fatalf("%s lane %d: preconditioner returned zero", label, c)
		}
		for s := range sums {
			if m := math.Abs(sums[s]) / cnt[s]; m > 1e-12*scale {
				t.Fatalf("%s lane %d: component %d has mean %.3e, max|z| %.3e", label, c, s, m, scale)
			}
		}
	}
}

// offsetBlock is an n×k block whose lanes are normals shifted by a distinct
// constant per component and lane, so no lane is in range(A) on entry.
func offsetBlock(n, k int, comp []int, seed int64) *matrix.Block {
	rng := rand.New(rand.NewSource(seed))
	var b matrix.Block
	b.Reshape(n, k)
	d := b.Data()
	for v := 0; v < n; v++ {
		for c := 0; c < k; c++ {
			d[v*k+c] = rng.NormFloat64() + 1.5*float64(comp[v]+1) + 0.25*float64(c)
		}
	}
	return &b
}

// TestPreconditionerReturnsRange holds the preconditioner contract the
// outer driver and the Chebyshev sweep rely on instead of projecting again:
// every lane of every block the chain returns — applyHTopBlock, and
// applyHBlock at each level, into that level's sweep — is projected per
// component, at widths 1, 2 and 4, on a chain with no level (the bottom
// factor's solve answers), a default chain, a deep chain and a deep
// two-component chain; and so is the baselines' diagPrecond, for CG and for
// Jacobi. The inputs have nonzero per-component means, so a block passed
// through unprojected fails. The applications run at PARLAP_TEST_WORKERS,
// so at k = 1 the parallel projection kernels answer there.
func TestPreconditionerReturnsRange(t *testing.T) {
	w := testWorkers(t)
	grid := gen.Grid2D(40, 40)
	edges := append([]graph.Edge(nil), grid.Edges...)
	for _, e := range gen.PreferentialAttachment(500, 3, 2).Edges {
		edges = append(edges, graph.Edge{U: e.U + grid.N, V: e.V + grid.N, W: e.W})
	}
	two := graph.FromEdges(grid.N+500, edges)
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		p        ChainParams
		minDepth int
		maxDepth int
	}{
		{"no-level", gen.Grid2D(8, 8), DefaultChainParams(), 0, 0},
		{"default", grid, DefaultChainParams(), 0, 99},
		{"deep", grid, deepChainParams(grid), 2, 99},
		{"two-component", two, deepChainParams(two), 2, 99},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := BuildChainOpts(tc.g, tc.p, Options{Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := c.Depth(); d < tc.minDepth || d > tc.maxDepth {
				t.Fatalf("chain depth %d, want %d…%d", d, tc.minDepth, tc.maxDepth)
			}
			lap, ci := c.Top()
			for _, k := range []int{1, 2, 4} {
				ws := newWorkspace(c, k)
				rs := offsetBlock(lap.N, k, ci.Comp, int64(k))
				label := fmt.Sprintf("k=%d top", k)
				requireLanesInRange(t, label, c.applyHTopBlock(w, rs, k, ws), ci)
				for i := 1; i < c.Depth(); i++ {
					lvl := &c.Levels[i]
					r := offsetBlock(lvl.Lap.N, k, lvl.Comp, int64(10*i+k))
					requireLanesInRange(t, fmt.Sprintf("k=%d level %d", k, i), c.applyHBlock(w, i, r, ws), lvl.CompIdx)
				}
			}
		})
	}
	t.Run("diag", func(t *testing.T) {
		comp, numComp := two.ConnectedComponents()
		ci := matrix.NewCompIndex(comp, numComp)
		a := matrix.LaplacianOf(two)
		inv := make([]float64, a.N)
		for i, d := range a.Diag {
			inv[i] = 1 / d
		}
		for _, pc := range []struct {
			name string
			d    *diagPrecond
		}{{"cg", &diagPrecond{ci: ci}}, {"jacobi", &diagPrecond{inv: inv, ci: ci}}} {
			for _, k := range []int{1, 2, 4} {
				rs := offsetBlock(a.N, k, comp, int64(k))
				requireLanesInRange(t, fmt.Sprintf("%s k=%d", pc.name, k), pc.d.applyHTopBlock(w, rs, k, nil), ci)
			}
		}
	})
}
