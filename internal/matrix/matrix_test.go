package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parlap/internal/graph"
)

func pathGraph(n int) *graph.Graph {
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{U: i, V: i + 1, W: 1}
	}
	return graph.FromEdges(n, edges)
}

func TestLaplacianOfTriangle(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 3}})
	l := LaplacianOf(g)
	if l.N != 3 {
		t.Fatalf("N = %d", l.N)
	}
	wantDiag := []float64{4, 3, 5}
	for i, w := range wantDiag {
		if l.Diag[i] != w {
			t.Fatalf("diag[%d] = %v, want %v", i, l.Diag[i], w)
		}
	}
	// Row sums must vanish.
	ones := []float64{1, 1, 1}
	y := l.Apply(ones)
	for i, v := range y {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("L·1 [%d] = %v, want 0", i, v)
		}
	}
}

func TestLaplacianQuadFormEqualsEdgeSum(t *testing.T) {
	// xᵀLx = Σ_e w_e (x_u − x_v)²: the defining identity.
	rng := rand.New(rand.NewSource(3))
	n := 50
	var edges []graph.Edge
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: rng.Intn(i), V: i, W: rng.Float64() + 0.1})
	}
	g := graph.FromEdges(n, edges)
	l := LaplacianOf(g)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := l.QuadForm(x)
	want := 0.0
	for _, e := range g.Edges {
		d := x[e.U] - x[e.V]
		want += e.W * d * d
	}
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("quad form %v != edge sum %v", got, want)
	}
}

func TestGraphOfRoundTrip(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1.5}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 0.5}})
	g2 := GraphOfW(0, LaplacianOf(g))
	if g2.N != g.N || g2.M() != g.M() {
		t.Fatalf("round trip changed size: %d/%d vs %d/%d", g2.N, g2.M(), g.N, g.M())
	}
	if math.Abs(g2.TotalWeight()-g.TotalWeight()) > 1e-12 {
		t.Fatalf("round trip changed weight")
	}
}

func TestLaplacianMergesParallelEdges(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 0, V: 1, W: 2}})
	l := LaplacianOf(g)
	if l.Diag[0] != 3 {
		t.Fatalf("diag = %v, want 3", l.Diag[0])
	}
	if l.NNZ() != 4 { // 2 diag + 2 off-diag entries
		t.Fatalf("nnz = %d, want 4", l.NNZ())
	}
}

func TestTripletsRejectBadInput(t *testing.T) {
	if _, err := NewSparseFromTriplets(2, []int{0}, []int{5}, []float64{1}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := NewSparseFromTriplets(2, []int{0, 1}, []int{1}, []float64{1}); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestMulVecIdentityLike(t *testing.T) {
	a, err := NewSparseFromTriplets(3,
		[]int{0, 1, 2}, []int{0, 1, 2}, []float64{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	y := a.Apply([]float64{1, 1, 1})
	want := []float64{2, 3, 4}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestIsSDD(t *testing.T) {
	g := pathGraph(5)
	l := LaplacianOf(g)
	if !l.IsSDD(1e-12) {
		t.Fatal("Laplacian should be SDD")
	}
	// Perturb a diagonal to violate dominance.
	bad, _ := NewSparseFromTriplets(2,
		[]int{0, 0, 1, 1}, []int{0, 1, 0, 1}, []float64{0.5, -1, -1, 2})
	if bad.IsSDD(1e-12) {
		t.Fatal("matrix with deficient diagonal passed IsSDD")
	}
	// Asymmetric matrix must fail.
	asym, _ := NewSparseFromTriplets(2,
		[]int{0, 0, 1}, []int{0, 1, 1}, []float64{2, -1, 2})
	if asym.IsSDD(1e-12) {
		t.Fatal("asymmetric matrix passed IsSDD")
	}
}

func TestIsLaplacian(t *testing.T) {
	if !IsLaplacian(LaplacianOf(pathGraph(4)), 1e-10) {
		t.Fatal("Laplacian not recognized")
	}
	// SDD but not Laplacian: positive off-diagonal.
	a, _ := NewSparseFromTriplets(2,
		[]int{0, 0, 1, 1}, []int{0, 1, 0, 1}, []float64{2, 1, 1, 2})
	if IsLaplacian(a, 1e-10) {
		t.Fatal("positive off-diagonal accepted as Laplacian")
	}
}

func TestVectorKernels(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if d := Dot(x, y); d != 32 {
		t.Fatalf("Dot = %v, want 32", d)
	}
	if n := Norm2W(0, []float64{3, 4}); n != 5 {
		t.Fatalf("Norm2 = %v, want 5", n)
	}
	dst := make([]float64, 3)
	AxpyIntoW(0, dst, 2, x, y)
	want := []float64{6, 9, 12}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	SubIntoW(0, dst, y, x)
	for i := range dst {
		if dst[i] != 3 {
			t.Fatalf("Sub[%d] = %v, want 3", i, dst[i])
		}
	}
	ScaleIntoW(0, dst, 10, x)
	for i := range dst {
		if dst[i] != 10*x[i] {
			t.Fatalf("Scale[%d] = %v", i, dst[i])
		}
	}
}

func TestProjectOutConstant(t *testing.T) {
	x := []float64{1, 2, 3, 6}
	ProjectOutConstant(x)
	if m := Mean(x); math.Abs(m) > 1e-15 {
		t.Fatalf("mean after projection = %v", m)
	}
}

func TestProjectOutConstantMasked(t *testing.T) {
	x := []float64{1, 3, 10, 30}
	comp := []int{0, 0, 1, 1}
	ProjectOutConstantMaskedW(0, x, comp, 2)
	if x[0] != -1 || x[1] != 1 || x[2] != -10 || x[3] != 10 {
		t.Fatalf("masked projection wrong: %v", x)
	}
}

func TestLaplacianFactorSolvesGrid(t *testing.T) {
	g := pathGraph(6)
	l := LaplacianOf(g)
	comp, k := g.ConnectedComponents()
	lf, err := NewLaplacianFactorW(0, l, comp, k)
	if err != nil {
		t.Fatal(err)
	}
	// Right-hand side in range(L): mean zero.
	b := []float64{1, -1, 2, -2, 3, -3}
	x := lf.Solve(b)
	y := l.Apply(x)
	for i := range b {
		if math.Abs(y[i]-b[i]) > 1e-8 {
			t.Fatalf("L x − b = %v at %d", y[i]-b[i], i)
		}
	}
	// Solution is mean-centered (pseudo-inverse representative).
	if m := Mean(x); math.Abs(m) > 1e-10 {
		t.Fatalf("solution mean = %v", m)
	}
}

func TestLaplacianFactorDisconnected(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 2}})
	l := LaplacianOf(g)
	comp, k := g.ConnectedComponents()
	if k != 2 {
		t.Fatalf("components = %d", k)
	}
	lf, err := NewLaplacianFactorW(0, l, comp, k)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, -1, 2, -2}
	x := lf.Solve(b)
	y := l.Apply(x)
	for i := range b {
		if math.Abs(y[i]-b[i]) > 1e-9 {
			t.Fatalf("residual %v at %d", y[i]-b[i], i)
		}
	}
}

func TestLaplacianFactorProjectsOffRangeRHS(t *testing.T) {
	g := pathGraph(4)
	l := LaplacianOf(g)
	comp, k := g.ConnectedComponents()
	lf, _ := NewLaplacianFactorW(0, l, comp, k)
	// b with nonzero mean: solver should solve against the projected b.
	b := []float64{5, 1, 1, 1}
	x := lf.Solve(b)
	y := l.Apply(x)
	ProjectOutConstant(b)
	for i := range b {
		if math.Abs(y[i]-b[i]) > 1e-9 {
			t.Fatalf("residual vs projected b: %v at %d", y[i]-b[i], i)
		}
	}
}

func TestGrembanLaplacianInput(t *testing.T) {
	// A Laplacian is SDD; the reduction must still work (slack = 0).
	g := pathGraph(4)
	l := LaplacianOf(g)
	gr, err := NewGrembanReductionW(0, l, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gr.G.N != 8 {
		t.Fatalf("double cover has %d vertices, want 8", gr.G.N)
	}
	// Solve via the direct factor on the double cover and check A x = b.
	comp, k := gr.G.ConnectedComponents()
	lf, err := NewLaplacianFactorW(0, gr.L, comp, k)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, -2, 3, -2}
	x := gr.Project(lf.Solve(gr.Lift(b)))
	y := l.Apply(x)
	// b may be off range(L); compare against projected b.
	bp := CopyVec(b)
	ProjectOutConstant(bp)
	for i := range bp {
		if math.Abs(y[i]-bp[i]) > 1e-8 {
			t.Fatalf("Gremban solve residual %v at %d", y[i]-bp[i], i)
		}
	}
}

func TestGrembanPositiveOffDiagonal(t *testing.T) {
	// SDD with positive off-diagonals and slack: A = [[3,1],[1,2]].
	a, err := NewSparseFromTriplets(2,
		[]int{0, 0, 1, 1}, []int{0, 1, 0, 1}, []float64{3, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := NewGrembanReductionW(0, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	comp, k := gr.G.ConnectedComponents()
	lf, err := NewLaplacianFactorW(0, gr.L, comp, k)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 1}
	x := gr.Project(lf.Solve(gr.Lift(b)))
	// A is nonsingular: exact solve expected. A x = b.
	y := a.Apply(x)
	for i := range b {
		if math.Abs(y[i]-b[i]) > 1e-8 {
			t.Fatalf("residual %v at %d (x=%v)", y[i]-b[i], i, x)
		}
	}
}

func TestGrembanRejectsNonSDD(t *testing.T) {
	a, _ := NewSparseFromTriplets(2,
		[]int{0, 0, 1, 1}, []int{0, 1, 0, 1}, []float64{1, -5, -5, 1})
	if _, err := NewGrembanReductionW(0, a, 0); err == nil {
		t.Fatal("non-SDD accepted")
	}
}

func TestGrembanRandomSDDProperty(t *testing.T) {
	// Property: for random SDD matrices with strictly positive slack
	// (hence nonsingular), the Gremban route solves A x = b exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		dense := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.6 {
					v := (rng.Float64() - 0.5) * 4
					dense[i*n+j] = v
					dense[j*n+i] = v
				}
			}
		}
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				if j != i {
					s += math.Abs(dense[i*n+j])
				}
			}
			dense[i*n+i] = s + 0.5 + rng.Float64()
		}
		var rows, cols []int
		var vals []float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if dense[i*n+j] != 0 {
					rows = append(rows, i)
					cols = append(cols, j)
					vals = append(vals, dense[i*n+j])
				}
			}
		}
		a, err := NewSparseFromTriplets(n, rows, cols, vals)
		if err != nil {
			return false
		}
		gr, err := NewGrembanReductionW(0, a, 0)
		if err != nil {
			return false
		}
		comp, k := gr.G.ConnectedComponents()
		lf, err := NewLaplacianFactorW(0, gr.L, comp, k)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := gr.Project(lf.Solve(gr.Lift(b)))
		y := a.Apply(x)
		for i := range b {
			if math.Abs(y[i]-b[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestANormNonNegative(t *testing.T) {
	l := LaplacianOf(pathGraph(5))
	x := []float64{1, 1, 1, 1, 1} // null space: A-norm 0
	if n := ANorm(l, x); n != 0 {
		t.Fatalf("ANorm of null vector = %v", n)
	}
}
