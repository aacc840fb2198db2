package decomp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/wd"
)

// checkDecomposition verifies the structural invariants of Theorem 4.1(1,2):
// every vertex belongs to exactly one component, each component's center is
// inside it, and the strong radius (in the induced subgraph) is at most rho.
func checkDecomposition(t *testing.T, g *graph.Graph, res *Result, rho int) {
	t.Helper()
	if len(res.Comp) != g.N {
		t.Fatalf("Comp has %d entries for %d vertices", len(res.Comp), g.N)
	}
	for v := 0; v < g.N; v++ {
		if res.Comp[v] < 0 || int(res.Comp[v]) >= res.NumComp {
			t.Fatalf("vertex %d has invalid component %d", v, res.Comp[v])
		}
	}
	if len(res.Centers) != res.NumComp {
		t.Fatalf("%d centers for %d components", len(res.Centers), res.NumComp)
	}
	for c, s := range res.Centers {
		if int(res.Comp[s]) != c {
			t.Fatalf("center %d of component %d lies in component %d (violates Thm 4.1(1))", s, c, res.Comp[s])
		}
	}
	radii := StrongRadius(g, res)
	for c, r := range radii {
		if r > rho {
			t.Fatalf("component %d has strong radius %d > ρ=%d (violates Thm 4.1(2))", c, r, rho)
		}
	}
	// Strong-radius computation must also certify connectivity: every vertex
	// reachable from its center within the component. Recompute reachability.
	seen := make([]bool, g.N)
	for c := 0; c < res.NumComp; c++ {
		s := int(res.Centers[c])
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for i := g.Off[u]; i < g.Off[u+1]; i++ {
				v := g.Adj[i]
				if !seen[v] && res.Comp[v] == res.Comp[s] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
	}
	for v := 0; v < g.N; v++ {
		if !seen[v] {
			t.Fatalf("vertex %d not reachable from its center within its component", v)
		}
	}
}

// TestSplitGraphGrid, TestSplitGraphGNP and TestSplitGraphRandomRegular
// assert Theorem 4.1(1,2) on three graph families — a grid, a sparse
// G(n, p) and a random 4-regular graph — at ρ from 4 to 64: every center
// lies inside its component and every strong radius is at most ρ.
func TestSplitGraphGrid(t *testing.T) {
	g := gen.Grid2D(32, 32)
	rng := rand.New(rand.NewSource(1))
	for _, rho := range []int{4, 8, 16, 32, 64} {
		res := SplitGraph(g, rho, PracticalParams(), rng, nil)
		checkDecomposition(t, g, res, rho)
	}
}

func TestSplitGraphPaperParams(t *testing.T) {
	g := gen.Grid2D(16, 16)
	rng := rand.New(rand.NewSource(2))
	res := SplitGraph(g, 12, PaperParams(), rng, nil)
	checkDecomposition(t, g, res, 12)
}

func TestSplitGraphGNP(t *testing.T) {
	g := gen.GNP(500, 0.01, 3)
	rng := rand.New(rand.NewSource(4))
	for _, rho := range []int{6, 8, 16, 32, 64} {
		res := SplitGraph(g, rho, PracticalParams(), rng, nil)
		checkDecomposition(t, g, res, rho)
	}
}

func TestSplitGraphRandomRegular(t *testing.T) {
	g := gen.RandomRegular(512, 4, 1)
	rng := rand.New(rand.NewSource(1))
	for _, rho := range []int{8, 16, 32, 64} {
		res := SplitGraph(g, rho, PracticalParams(), rng, nil)
		checkDecomposition(t, g, res, rho)
	}
}

func TestSplitGraphDisconnected(t *testing.T) {
	// Two far-apart paths plus isolated vertices.
	var edges []graph.Edge
	for i := 0; i+1 < 10; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1, W: 1})
	}
	for i := 20; i+1 < 30; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1, W: 1})
	}
	g := graph.FromEdges(35, edges)
	rng := rand.New(rand.NewSource(5))
	res := SplitGraph(g, 4, PracticalParams(), rng, nil)
	checkDecomposition(t, g, res, 4)
}

func TestSplitGraphSingletonAndTiny(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g1 := graph.FromEdges(1, nil)
	res := SplitGraph(g1, 3, PracticalParams(), rng, nil)
	if res.NumComp != 1 || res.Comp[0] != 0 {
		t.Fatalf("singleton decomposition wrong: %+v", res)
	}
	g2 := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1, W: 1}})
	res2 := SplitGraph(g2, 1, PracticalParams(), rng, nil)
	checkDecomposition(t, g2, res2, 1)
}

func TestSplitGraphRhoOne(t *testing.T) {
	// ρ=1: components are stars of radius ≤ 1.
	g := gen.Grid2D(10, 10)
	rng := rand.New(rand.NewSource(7))
	res := SplitGraph(g, 1, PracticalParams(), rng, nil)
	checkDecomposition(t, g, res, 1)
}

func TestSplitGraphCoversAllVerticesProperty(t *testing.T) {
	f := func(seed int64, rawRho uint8) bool {
		rho := 1 + int(rawRho)%20
		rng := rand.New(rand.NewSource(seed))
		g := gen.GNP(120, 0.02, seed)
		res := SplitGraph(g, rho, PracticalParams(), rng, nil)
		// Every vertex assigned; every center owns itself.
		for v := 0; v < g.N; v++ {
			if res.Comp[v] < 0 || int(res.Comp[v]) >= res.NumComp {
				return false
			}
		}
		for c, s := range res.Centers {
			if int(res.Comp[s]) != c {
				return false
			}
		}
		radii := StrongRadius(g, res)
		for _, r := range radii {
			if r > rho {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitGraphWorkDepthAccounting(t *testing.T) {
	g := gen.Grid2D(40, 40)
	rng := rand.New(rand.NewSource(8))
	var rec wd.Recorder
	SplitGraph(g, 16, PracticalParams(), rng, &rec)
	if rec.Work() == 0 {
		t.Fatal("no work recorded")
	}
	if rec.Depth() == 0 {
		t.Fatal("no depth recorded")
	}
	// Depth must stay well below n for a parallel ball growing: bounded by
	// Σ_t r(t) ≈ T·ρ levels, far under n=1600.
	if rec.Depth() > int64(g.N)/2 {
		t.Fatalf("depth %d suspiciously large", rec.Depth())
	}
}

func TestCountCut(t *testing.T) {
	g := gen.Path(6)
	comp := []int32{0, 0, 0, 1, 1, 1}
	st := CountCutW(0, g, comp, nil, 1)
	if st.Total != 1 || st.PerClass[0] != 1 {
		t.Fatalf("cut = %+v, want 1", st)
	}
	// Two classes: color edges alternately.
	class := make([]int, g.M())
	for i := range class {
		class[i] = i % 2
	}
	st2 := CountCutW(0, g, comp, class, 2)
	if st2.Total != 1 {
		t.Fatalf("total = %d", st2.Total)
	}
	// Edge 2 = {2,3} is the cut edge; its class is 0.
	if st2.PerClass[0] != 1 || st2.PerClass[1] != 0 {
		t.Fatalf("per-class = %v", st2.PerClass)
	}
}

func TestPartitionValidates(t *testing.T) {
	g := gen.Grid2D(24, 24)
	rng := rand.New(rand.NewSource(9))
	pr, err := Partition(g, nil, 1, 16, PracticalParams(), rng, nil)
	if err != nil {
		t.Fatalf("partition failed validation: %v", err)
	}
	checkDecomposition(t, g, pr.Result, 16)
	if pr.Trials < 1 {
		t.Fatalf("trials = %d", pr.Trials)
	}
	if pr.Cut.Total > g.M() {
		t.Fatalf("cut %d exceeds edge count", pr.Cut.Total)
	}
}

func TestPartitionMultiClass(t *testing.T) {
	g := gen.Grid2D(20, 20)
	class := make([]int, g.M())
	for i := range class {
		class[i] = i % 3
	}
	rng := rand.New(rand.NewSource(10))
	pr, err := Partition(g, class, 3, 24, PracticalParams(), rng, nil)
	if err != nil {
		t.Fatalf("multi-class partition failed: %v", err)
	}
	sum := 0
	for _, c := range pr.Cut.PerClass {
		sum += c
	}
	if sum != pr.Cut.Total {
		t.Fatalf("per-class cuts %v do not sum to total %d", pr.Cut.PerClass, pr.Cut.Total)
	}
}

func TestPartitionImpossibleThresholdReturnsBest(t *testing.T) {
	g := gen.Grid2D(16, 16)
	p := PracticalParams()
	p.CutConst = 1e-9 // unachievable: any cut edge fails validation
	p.MaxRetries = 3
	rng := rand.New(rand.NewSource(11))
	pr, err := Partition(g, nil, 1, 4, p, rng, nil)
	if err == nil {
		t.Fatal("expected validation error with impossible threshold")
	}
	if pr == nil {
		t.Fatal("best attempt not returned on failure")
	}
	checkDecomposition(t, g, pr.Result, 4)
}

// TestCutFractionDecreasesWithRho is Theorem 4.1(3) on a 48² torus (no
// boundary effects): the cut fraction falls like 1/ρ, so ρ·cut/m stays
// below a polylog. With this seed ρ·cut/m measures 1.8–2.7 for ρ ≤ 32;
// the pin asks for log₂n/2 = 5.6, a 2× margin. The theorem's bound holds
// for ρ well below the diameter (48 here): at ρ = 64 the balls stop at the
// torus itself, the cut fraction stops falling and ρ·cut/m reads 5.1, so
// no bound is asserted there, only that the cut is smaller than at ρ = 4. The code departs from the paper
// in running PracticalParams, whose constants are far below the paper's
// c₁ = 272; the bound it meets is correspondingly tighter.
func TestCutFractionDecreasesWithRho(t *testing.T) {
	g := gen.Torus2D(48, 48)
	rng := rand.New(rand.NewSource(12))
	frac := func(rho int) float64 {
		total := 0
		const reps = 3
		for r := 0; r < reps; r++ {
			res := SplitGraph(g, rho, PracticalParams(), rng, nil)
			total += CountCutW(0, g, res.Comp, nil, 1).Total
		}
		return float64(total) / float64(reps*g.M())
	}
	bound := math.Log2(float64(g.N)) / 2
	fracs := map[int]float64{}
	for _, rho := range []int{4, 8, 16, 32, 64} {
		fracs[rho] = frac(rho)
		if r := float64(rho) * fracs[rho]; rho <= 32 && r > bound {
			t.Fatalf("ρ=%d: ρ·cut/m = %.3f > log₂n/2 = %.2f", rho, r, bound)
		}
	}
	f4, f64 := fracs[4], fracs[64]
	if f64 >= f4 {
		t.Fatalf("cut fraction did not decrease: ρ=4→%.3f ρ=64→%.3f", f4, f64)
	}
	if f64 > 0.5 {
		t.Fatalf("ρ=64 cut fraction %.3f too large", f64)
	}
}

// TestCoverageCounts: every vertex is covered at least once, and Lemma 4.4's
// overlap bound holds — no vertex lies in more than O(log² n) balls over
// all iterations. On 16²–64² grids at ρ = 32 the maximum measured 8–10
// against log₂²n = 64–144; the pin asks for log₂²n/4, a 2× margin at
// n = 16².
func TestCoverageCounts(t *testing.T) {
	g := gen.Grid2D(20, 20)
	p := PracticalParams()
	p.CountCoverage = true
	rng := rand.New(rand.NewSource(13))
	res := SplitGraph(g, 8, p, rng, nil)
	if res.Coverage == nil {
		t.Fatal("coverage not recorded")
	}
	// Every vertex is covered at least once (it got assigned to some ball).
	for v, c := range res.Coverage {
		if c < 1 {
			t.Fatalf("vertex %d covered %d times", v, c)
		}
	}
	for _, side := range []int{16, 32, 64} {
		g := gen.Grid2D(side, side)
		res := SplitGraph(g, 32, p, rand.New(rand.NewSource(1)), nil)
		maxC := int32(0)
		for _, c := range res.Coverage {
			maxC = max(maxC, c)
		}
		l := math.Log2(float64(g.N))
		if float64(maxC) > l*l/4 {
			t.Fatalf("%d² grid: a vertex lies in %d balls > log₂²n/4 = %.0f", side, maxC, l*l/4)
		}
	}
}

func TestCompIterMonotoneAndValid(t *testing.T) {
	g := gen.Grid2D(24, 24)
	rng := rand.New(rand.NewSource(14))
	res := SplitGraph(g, 8, PracticalParams(), rng, nil)
	for c, it := range res.CompIter {
		if it < 1 || int(it) > res.T {
			t.Fatalf("component %d created at invalid iteration %d (T=%d)", c, it, res.T)
		}
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	g := gen.Grid2D(20, 20)
	run := func() []int32 {
		rng := rand.New(rand.NewSource(99))
		return SplitGraph(g, 8, PracticalParams(), rng, nil).Comp
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			// Component *ids* may be permuted only if map iteration differed;
			// compare partition structure instead.
			same := func(x, y []int32) bool {
				m := make(map[int32]int32)
				for j := range x {
					if v, ok := m[x[j]]; ok {
						if v != y[j] {
							return false
						}
					} else {
						m[x[j]] = y[j]
					}
				}
				return true
			}
			if !same(a, b) || !same(b, a) {
				t.Fatal("decomposition not deterministic for fixed seed")
			}
			return
		}
	}
}
