package solver

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/matrix"
	"parlap/internal/wd"
)

// vecDigest is a short content hash of x's exact float64 bits.
func vecDigest(x []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// baselinePin is everything a CG or Jacobi-PCG solve reports, bit for bit.
type baselinePin struct {
	digest      string
	iterations  int
	converged   bool
	residual    uint64 // math.Float64bits of SolveStats.Residual
	work, depth int64
}

// TestBaselinePins pins CG and JacobiPCG — solution bits, iteration count,
// convergence, residual bits and analytic work/depth (charged to rec once)
// — on a unit grid, a preferential-attachment graph, a two-component graph
// whose right-hand side has a nonzero mean on each component, a zero
// right-hand side, and a larger grid stopped by maxIter. The baselines run
// at workers 0, so on a multi-core runner the last case also checks that
// their parallel vector kernels reproduce the sequential bits.
func TestBaselinePins(t *testing.T) {
	pa := gen.PreferentialAttachment(600, 4, 1)
	// Two components: a 10×10 grid and a 40-vertex path, shifted past it.
	grid := gen.Grid2D(10, 10)
	edges := append([]graph.Edge(nil), grid.Edges...)
	for _, e := range gen.Path(40).Edges {
		edges = append(edges, graph.Edge{U: e.U + grid.N, V: e.V + grid.N, W: e.W})
	}
	twoComp := graph.FromEdges(grid.N+40, edges)

	// rhs draws unprojected normals plus a per-component offset, so the
	// baselines' own projection has something to remove.
	rhs := func(g *graph.Graph, seed int64, comp []int) []float64 {
		rng := rand.New(rand.NewSource(seed))
		b := make([]float64, g.N)
		for i := range b {
			b[i] = rng.NormFloat64() + 0.5 + 1.5*float64(comp[i])
		}
		return b
	}
	cases := []struct {
		name string
		g    *graph.Graph
		zero bool
		// maxIter, when set, stops the solve short of convergence.
		maxIter int
		cg      baselinePin
		jac     baselinePin
	}{
		{name: "grid24", g: gen.Grid2D(24, 24),
			cg:  baselinePin{"ac3583a5ddf90af7", 97, true, 0x3e44c82c0a89b75f, 828768, 194},
			jac: baselinePin{"92a935f9f13f8918", 95, true, 0x3e4541b09b6b6ee2, 811680, 190}},
		{name: "pa600x4", g: pa,
			cg:  baselinePin{"e562207bbecf2ca1", 45, true, 0x3e440fc4fc6b4c46, 508050, 90},
			jac: baselinePin{"2e613c217caa2c78", 19, true, 0x3e3a6d8aa3ec72fd, 214510, 38}},
		{name: "two_components", g: twoComp,
			cg:  baselinePin{"bf29e9a28a1db310", 72, true, 0x3e347714413214bf, 142416, 144},
			jac: baselinePin{"9add7d46572ccb3d", 68, true, 0x3e43ff502a446e57, 134504, 136}},
		{name: "zero_rhs", g: gen.Grid2D(24, 24), zero: true,
			cg:  baselinePin{"606f558e014930f9", 0, true, 0, 0, 0},
			jac: baselinePin{"606f558e014930f9", 0, true, 0, 0, 0}},
		// Above par.SequentialThreshold, so at workers 0 on a multi-core
		// machine the vector kernels split; stopped by maxIter.
		{name: "grid48_maxiter", g: gen.Grid2D(48, 48), maxIter: 30,
			cg:  baselinePin{"77cb4f7b1520b122", 30, false, 0x3fbe04a30c5c31b1, 1031040, 60},
			jac: baselinePin{"540dcdfa3d76ddac", 30, false, 0x3fbdece4dfc584a8, 1031040, 60}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			comp, k := tc.g.ConnectedComponents()
			if tc.name == "two_components" && k != 2 {
				t.Fatalf("two-component case has %d components", k)
			}
			lap := matrix.LaplacianOf(tc.g)
			b := make([]float64, tc.g.N)
			if !tc.zero {
				b = rhs(tc.g, 7, comp)
			}
			maxIter := 20 * tc.g.N
			if tc.maxIter > 0 {
				maxIter = tc.maxIter
			}
			for _, bl := range []struct {
				name string
				f    func(*matrix.Sparse, []float64, []int, int, float64, int, *wd.Recorder) ([]float64, SolveStats)
				want baselinePin
			}{{"cg", CG, tc.cg}, {"jacobi", JacobiPCG, tc.jac}} {
				bcopy := append([]float64(nil), b...)
				rec := &wd.Recorder{}
				x, st := bl.f(lap, b, comp, k, 1e-8, maxIter, rec)
				if vecDigest(b) != vecDigest(bcopy) {
					t.Fatalf("%s modified its right-hand side", bl.name)
				}
				got := baselinePin{vecDigest(x), st.Iterations, st.Converged, math.Float64bits(st.Residual), st.Work, st.Depth}
				if got != bl.want {
					t.Errorf("%s: got %#v, want %#v", bl.name, got, bl.want)
				}
				if w, d := rec.Work(), rec.Depth(); w != st.Work || d != st.Depth {
					t.Errorf("%s: recorder charged (%d, %d), stats say (%d, %d)", bl.name, w, d, st.Work, st.Depth)
				}
			}
		})
	}
}
