package matrix

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
)

// denseReferenceSolve is the test-only dense reference for LaplacianFactor:
// the same grounding (highest vertex per component), but a dense Gaussian
// elimination in NATURAL vertex order carried in 256-bit arithmetic — a
// different elimination order and a different algorithm from the sparse
// min-degree LDLᵀ under test, and exact to float64 resolution even where
// the weights span sixteen orders of magnitude.
func denseReferenceSolve(a *Sparse, comp []int, numComp int, b []float64) []float64 {
	const prec = 256
	n := a.N
	x := append([]float64(nil), b...)
	ProjectOutConstantMaskedW(0, x, comp, numComp)
	grounded := make([]int, numComp)
	for v := 0; v < n; v++ {
		grounded[comp[v]] = v
	}
	var keep []int
	pos := make([]int, n)
	for v := 0; v < n; v++ {
		pos[v] = -1
		if grounded[comp[v]] != v {
			pos[v] = len(keep)
			keep = append(keep, v)
		}
	}
	k := len(keep)
	big0 := func(v float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(v) }
	m := make([][]*big.Float, k) // augmented [A | b]
	for i, v := range keep {
		m[i] = make([]*big.Float, k+1)
		for j := range m[i] {
			m[i][j] = big0(0)
		}
		for q := a.Off[v]; q < a.Off[v+1]; q++ {
			if p := pos[a.Col[q]]; p >= 0 {
				m[i][p] = big0(a.Val[q])
			}
		}
		m[i][k] = big0(x[v])
	}
	t := new(big.Float).SetPrec(prec)
	for c := 0; c < k; c++ {
		for r := c + 1; r < k; r++ {
			if m[r][c].Sign() == 0 {
				continue
			}
			f := new(big.Float).SetPrec(prec).Quo(m[r][c], m[c][c])
			for j := c; j <= k; j++ {
				m[r][j].Sub(m[r][j], t.Mul(f, m[c][j]))
			}
		}
	}
	sol := make([]*big.Float, k)
	out := make([]float64, n)
	for c := k - 1; c >= 0; c-- {
		s := new(big.Float).SetPrec(prec).Set(m[c][k])
		for j := c + 1; j < k; j++ {
			s.Sub(s, t.Mul(m[c][j], sol[j]))
		}
		sol[c] = s.Quo(s, m[c][c])
		out[keep[c]], _ = sol[c].Float64()
	}
	ProjectOutConstantMaskedW(0, out, comp, numComp)
	return out
}

// disjointUnion places the graphs side by side on disjoint vertex ranges.
func disjointUnion(gs ...*graph.Graph) *graph.Graph {
	var edges []graph.Edge
	n := 0
	for _, g := range gs {
		for _, e := range g.Edges {
			edges = append(edges, graph.Edge{U: e.U + n, V: e.V + n, W: e.W})
		}
		n += g.N
	}
	return graph.FromEdges(n, edges)
}

// wideWeights draws edge weights 10^u, u uniform in [-8, 8].
func wideWeights(g *graph.Graph, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, len(g.Edges))
	for i, e := range g.Edges {
		edges[i] = graph.Edge{U: e.U, V: e.V, W: math.Pow(10, 16*rng.Float64()-8)}
	}
	return graph.FromEdges(g.N, edges)
}

func factorTestbed() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"grid2d":       gen.Grid2D(9, 11),
		"grid3d":       gen.Grid3D(4, 5, 4),
		"torus":        gen.Torus2D(7, 8),
		"path":         gen.Path(60),
		"cycle":        gen.Cycle(41),
		"star":         gen.Star(30),
		"complete":     gen.Complete(17),
		"wheel":        gen.Wheel(25),
		"gnp":          gen.GNP(90, 0.08, 3),
		"regular":      gen.RandomRegular(80, 4, 5),
		"pa":           gen.PreferentialAttachment(100, 3, 7),
		"barbell":      gen.Barbell(8, 6),
		"cliques":      gen.PathOfCliques(6, 5),
		"uniform-w":    gen.WithUniformWeights(gen.Grid2D(8, 8), 0.5, 20, 2),
		"exp-w":        gen.WithExponentialWeights(gen.Grid2D(8, 8), 8, 8, 4),
		"wide-w":       wideWeights(gen.Grid2D(9, 9), 6),
		"wide-w-pa":    wideWeights(gen.PreferentialAttachment(70, 2, 8), 9),
		"union-3comp":  disjointUnion(gen.Grid2D(5, 6), gen.Cycle(9), gen.Star(7)),
		"union-wide-w": wideWeights(disjointUnion(gen.Grid2D(6, 6), gen.Path(11), gen.Complete(6), gen.Path(1)), 11),
	}
}

// TestLaplacianFactorMatchesDenseReference checks the sparse factor against
// the dense natural-order reference on every generator family, including
// multi-component bottoms whose right-hand sides carry a different non-zero
// mean per component and weights spanning 1e±8. Two walls: the normwise
// backward error of the sparse solve (the criterion a direct solver can meet
// at any conditioning), and agreement with the reference in the energy norm
// relative to the solution's own energy (measured: ≤ 3e-11 up to a 2e6
// weight spread, 8e-5 at 1e16).
func TestLaplacianFactorMatchesDenseReference(t *testing.T) {
	for name, g := range factorTestbed() {
		g := g
		t.Run(name, func(t *testing.T) {
			a := LaplacianOf(g)
			comp, k := g.ConnectedComponents()
			lf, err := NewLaplacianFactorW(0, a, comp, k)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(17))
			b := make([]float64, g.N)
			for v := range b {
				b[v] = rng.NormFloat64() + float64(3*comp[v]+1) // non-zero per-component mean
			}
			x := lf.Solve(b)
			ref := denseReferenceSolve(a, comp, k, b)

			pb := append([]float64(nil), b...)
			ProjectOutConstantMaskedW(0, pb, comp, k)
			r := a.Apply(x)
			SubIntoW(0, r, r, pb)
			normA := 0.0
			for _, d := range a.Diag {
				normA = math.Max(normA, 2*d)
			}
			if back := Norm2W(0, r) / (normA*Norm2W(0, x) + Norm2W(0, pb)); back > 1e-13 {
				t.Fatalf("backward error %.3e", back)
			}
			diff := make([]float64, g.N)
			SubIntoW(0, diff, x, ref)
			// The 1e±8 families are bounded by the representation, not the
			// factor: assembling a float64 Laplacian already rounds away a
			// weight 1e-16 below its vertex's largest, and the reference
			// solves that rounded matrix exactly.
			tol := 1e-9
			if strings.Contains(name, "wide-w") {
				tol = 1e-3
			}
			if e, scale := ANorm(a, diff), ANorm(a, ref); e > tol*scale {
				t.Fatalf("energy-norm distance to the dense reference %.3e (reference energy %.3e)", e, scale)
			}
			for c, mu := range componentSums(x, comp, k) {
				if math.Abs(mu) > 1e-9*(1+Norm2W(0, x)) {
					t.Fatalf("component %d of the solution sums to %g", c, mu)
				}
			}
		})
	}
}

func componentSums(x []float64, comp []int, k int) []float64 {
	s := make([]float64, k)
	for v, c := range comp {
		s[c] += x[v]
	}
	return s
}

// TestSparseLDLSolves drives the packed-column factor on a small SPD system
// that is not a Laplacian (positive off-diagonals): rows 0..2 of a hold
// A = [[4,1,0],[1,3,1],[0,1,2]] and vertex 3 is the grounded one.
func TestSparseLDLSolves(t *testing.T) {
	dense := [][]float64{{4, 1, 0}, {1, 3, 1}, {0, 1, 2}}
	var rows, cols []int
	var vals []float64
	for i := range dense {
		for j, v := range dense[i] {
			if v != 0 {
				rows, cols, vals = append(rows, i), append(cols, j), append(vals, v)
			}
		}
	}
	rows, cols, vals = append(rows, 2, 3, 3), append(cols, 3, 2, 3), append(vals, -1, -1, 1)
	a, err := NewSparseFromTriplets(4, rows, cols, vals)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := NewLaplacianFactorW(0, a, []int{0, 0, 0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lf.GroundedLen() != 3 {
		t.Fatalf("grounded system has %d vertices", lf.GroundedLen())
	}
	b := []float64{1, 2, 3}
	g := make([]float64, 3)
	for i, v := range lf.Order() {
		g[i] = b[v]
	}
	lf.Factor().solveInPlace(g)
	x := make([]float64, 3)
	for i, v := range lf.Order() {
		x[v] = g[i]
	}
	for i := range dense {
		s := 0.0
		for j := range dense[i] {
			s += dense[i][j] * x[j]
		}
		if math.Abs(s-b[i]) > 1e-12 {
			t.Fatalf("residual %v at row %d", s-b[i], i)
		}
	}
}

func TestLaplacianFactorRejectsIndefinite(t *testing.T) {
	// Leading 2×2 block [[1,2],[2,1]] has eigenvalues 3, −1.
	a, err := NewSparseFromTriplets(3,
		[]int{0, 0, 1, 1, 1, 2, 2}, []int{0, 1, 0, 1, 2, 1, 2}, []float64{1, 2, 2, 1, -1, -1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLaplacianFactorW(0, a, []int{0, 0, 0}, 1); err == nil {
		t.Fatal("indefinite matrix factored without error")
	}
}

// TestMinDegreeOrder pins the ordering rule on graphs whose minimum-degree
// order is known by hand: lowest degree first, ties by lowest vertex id.
func TestMinDegreeOrder(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Graph
		order []int
		nnz   int
	}{
		// Path 0-…-5, vertex 5 grounded: leaves peel from the low end, no fill.
		{"path", gen.Path(6), []int{0, 1, 2, 3, 4}, 4},
		// Star, centre 0, leaf 5 grounded: leaves first (centre-first would
		// fill the whole triangle); once three are gone the centre ties with
		// the last leaf at degree 1 and wins on id.
		{"star", gen.Star(6), []int{1, 2, 3, 0, 4}, 4},
		// Cycle 0-…-4-0, vertex 4 grounded: 0 and 3 start at degree 1.
		{"cycle", gen.Cycle(5), []int{0, 1, 2, 3}, 3},
	}
	for _, tc := range cases {
		a := LaplacianOf(tc.g)
		comp, k := tc.g.ConnectedComponents()
		lf, err := NewLaplacianFactorW(0, a, comp, k)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := lf.Order(); !slices.Equal(got, tc.order) {
			t.Fatalf("%s: order %v, want %v", tc.name, got, tc.order)
		}
		if lf.NNZ() != tc.nnz {
			t.Fatalf("%s: nnz(L) = %d, want %d", tc.name, lf.NNZ(), tc.nnz)
		}
	}
}

// TestLaplacianFactorWorkerBitwise: the ordering, the structure and every
// bit of L and D are identical for every worker count, and so are solves.
func TestLaplacianFactorWorkerBitwise(t *testing.T) {
	g := wideWeights(disjointUnion(gen.Grid2D(12, 13), gen.PreferentialAttachment(120, 3, 2)), 5)
	a := LaplacianOf(g)
	comp, k := g.ConnectedComponents()
	ref, err := NewLaplacianFactorW(1, a, comp, k)
	if err != nil {
		t.Fatal(err)
	}
	b := randCols(g.N, 1, 3)[0]
	xRef := ref.SolveW(1, b)
	for _, w := range []int{2, 4} {
		lf, err := NewLaplacianFactorW(w, a, comp, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(lf.Order(), ref.Order()) {
			t.Fatalf("workers-%d: elimination order differs", w)
		}
		f, rf := lf.Factor(), ref.Factor()
		if !slices.Equal(f.ColPtr, rf.ColPtr) || !slices.Equal(f.RowPos, rf.RowPos) {
			t.Fatalf("workers-%d: factor structure differs", w)
		}
		requireBitwise(t, "L", f.L, rf.L)
		requireBitwise(t, "D", f.D, rf.D)
		requireBitwise(t, "solve", lf.SolveW(w, b), xRef)
	}
}

// TestLaplacianFactorBlockBitwise: every lane of a k-wide block solve equals
// the single solve of that lane, bit for bit, on a multi-component bottom.
func TestLaplacianFactorBlockBitwise(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"connected": GraphOfW(0, randLap(120, 9)),
		"union":     wideWeights(disjointUnion(gen.Grid2D(7, 9), gen.Cycle(12), gen.Star(9)), 4),
	} {
		a := LaplacianOf(g)
		comp, numComp := g.ConnectedComponents()
		lf, err := NewLaplacianFactorW(0, a, comp, numComp)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range blockTestWidths {
			bs := randCols(a.N, k, 10)
			b, x, gb := NewBlock(a.N, k), NewBlock(a.N, k), NewBlock(lf.GroundedLen(), k)
			for c := range bs {
				b.SetCol(c, bs[c])
			}
			lf.SolveBlockIntoW(1, b, x, gb)
			col := make([]float64, a.N)
			for c := range bs {
				x.ColInto(c, col)
				requireBitwise(t, name, col, lf.SolveW(1, bs[c]))
			}
		}
	}
}

func TestLaplacianFactorSolveZeroAllocs(t *testing.T) {
	g := gen.Grid2D(20, 20)
	a := LaplacianOf(g)
	comp, numComp := g.ConnectedComponents()
	lf, err := NewLaplacianFactorW(1, a, comp, numComp)
	if err != nil {
		t.Fatal(err)
	}
	b := randCols(a.N, 1, 1)[0]
	x, gs := make([]float64, a.N), make([]float64, lf.GroundedLen())
	if n := testing.AllocsPerRun(20, func() { lf.SolveIntoW(1, b, x, gs) }); n != 0 {
		t.Fatalf("single solve allocates %v objects", n)
	}
	const k = 4
	bb, xb, gb := NewBlock(a.N, k), NewBlock(a.N, k), NewBlock(lf.GroundedLen(), k)
	for c := 0; c < k; c++ {
		bb.SetCol(c, b)
	}
	if n := testing.AllocsPerRun(20, func() { lf.SolveBlockIntoW(1, bb, xb, gb) }); n != 0 {
		t.Fatalf("k=4 block solve allocates %v objects", n)
	}
}

// TestAnalyzeLaplacianAbandonsAtBudget: a probe that cannot fit its budget
// stops within one column of it instead of computing the whole fill.
func TestAnalyzeLaplacianAbandonsAtBudget(t *testing.T) {
	g := gen.Complete(50)
	a := LaplacianOf(g)
	comp, k := g.ConnectedComponents()
	full, fill, err := AnalyzeLaplacian(a, comp, k, math.MaxInt64)
	if err != nil || full == nil {
		t.Fatalf("unbounded analysis failed: %v", err)
	}
	if want := int64(49 * 48 / 2); fill != want || int64(len(full.rowPos)) != want {
		t.Fatalf("K50 grounded fill = %d (%d stored rows), want %d", fill, len(full.rowPos), want)
	}
	s, reached, err := AnalyzeLaplacian(a, comp, k, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s != nil {
		t.Fatal("analysis over budget returned a structure")
	}
	if reached <= 100 || reached > 100+48 {
		t.Fatalf("abandoned at running fill %d, want just past 100", reached)
	}
	if s, _, _ := AnalyzeLaplacian(a, comp, k, fill); s == nil {
		t.Fatal("analysis exactly at budget abandoned")
	}
}

// analyzeLaplacianReference is AnalyzeLaplacian on sorted adjacency lists
// alone: the explicit elimination graph stays lists to the end, each clique
// merge a sorted merge. It is the test-only reference that the unordered
// merge and the bitset switch are checked against. dense is the first step
// at which the remaining graph meets AnalyzeLaplacian's switch condition
// 64·Σ|adj| ≥ r² (the kept count if it never does), where the analysis
// under test must switch to bitsets.
func analyzeLaplacianReference(a *Sparse, comp []int, numComp int, maxFill int64) (s *LaplacianSymbolic, fill int64, dense int) {
	n := a.N
	grounded, err := groundLast(n, comp, numComp)
	if err != nil {
		panic(err)
	}
	if maxFill > math.MaxInt32 {
		maxFill = math.MaxInt32 // column pointers are int32
	}
	isGrounded := func(v int) bool { return grounded[comp[v]] == v }

	// Elimination-graph adjacency over the kept vertices, one flat backing
	// array; each list's capacity is clipped to its length so growth
	// reallocates instead of running into its neighbour.
	flat := make([]int32, 0, a.NNZ())
	adj := make([][]int32, n)
	var heap minKeyHeap
	for v := 0; v < n; v++ {
		if isGrounded(v) {
			continue
		}
		lo := len(flat)
		for i := a.Off[v]; i < a.Off[v+1]; i++ {
			if u := int(a.Col[i]); u != v && !isGrounded(u) {
				flat = append(flat, int32(u))
			}
		}
		adj[v] = flat[lo:len(flat):len(flat)]
		if !slices.IsSorted(adj[v]) {
			slices.Sort(adj[v])
		}
		heap = append(heap, uint64(len(adj[v]))<<32|uint64(v))
	}
	slices.Sort(heap) // a sorted array is a valid heap
	kept := len(heap)
	sumAdj := int64(len(flat))
	dense = kept

	s = &LaplacianSymbolic{
		n: n, comp: comp, numComp: numComp, grounded: grounded,
		keep:   make([]int, kept),
		pos:    make([]int, n),
		colPtr: make([]int32, kept+1),
	}
	for v := range s.pos {
		s.pos[v] = -1
	}
	rows := make([]int32, 0, len(flat))
	var merged []int32
	for step := 0; step < kept; step++ {
		if r := int64(kept - step); dense == kept && 64*sumAdj >= r*r {
			dense = step
		}
		var p int
		for {
			key := heap.pop()
			p = int(uint32(key))
			if s.pos[p] < 0 && int(key>>32) == len(adj[p]) {
				break
			}
		}
		s.pos[p] = step
		s.keep[step] = p
		col := adj[p]
		fill += int64(len(col))
		if fill > maxFill {
			return nil, fill, dense
		}
		sumAdj -= int64(len(col))
		rows = append(rows, col...)
		s.colPtr[step+1] = int32(len(rows))
		// Eliminating p joins its neighbours into a clique:
		// adj[u] = (adj[u] ∪ col) \ {u, p}, a sorted merge.
		for _, u := range col {
			old := adj[u]
			merged = merged[:0]
			i, j := 0, 0
			for i < len(old) || j < len(col) {
				var x int32
				switch {
				case j == len(col) || (i < len(old) && old[i] < col[j]):
					x = old[i]
					i++
				case i == len(old) || col[j] < old[i]:
					x = col[j]
					j++
				default:
					x = old[i]
					i++
					j++
				}
				if x != u && int(x) != p {
					merged = append(merged, x)
				}
			}
			if len(merged) <= cap(old) {
				adj[u] = old[:len(merged)]
			} else {
				adj[u] = make([]int32, len(merged), len(merged)+len(merged)/2)
			}
			copy(adj[u], merged)
			sumAdj += int64(len(merged) - len(old))
			if len(merged) != len(old) {
				heap.push(uint64(len(merged))<<32 | uint64(u))
			}
		}
		adj[p] = nil
	}
	// Vertex ids -> elimination positions. Everything in column j was
	// eliminated after j, so the entries are below-diagonal by construction;
	// sorting gives the numeric pass and the solves ascending rows.
	for q, v := range rows {
		rows[q] = int32(s.pos[v])
	}
	for j := 0; j < kept; j++ {
		slices.Sort(rows[s.colPtr[j]:s.colPtr[j+1]])
	}
	s.rowPos = rows
	return s, fill, dense
}

// analyzeCorpus holds graphs whose remaining elimination graph turns dense
// at once (complete, star, small cliques), late (grids, expanders, pa) or
// never (a matching leaves every kept vertex isolated), with several
// multi-component members.
func analyzeCorpus() map[string]*graph.Graph {
	matching := make([]*graph.Graph, 300)
	for i := range matching {
		matching[i] = gen.Path(2)
	}
	return map[string]*graph.Graph{
		"grid2d":     gen.Grid2D(24, 31),
		"grid3d":     gen.Grid3D(7, 8, 6),
		"pa":         gen.PreferentialAttachment(900, 4, 3),
		"regular":    gen.RandomRegular(500, 8, 2),
		"complete":   gen.Complete(45),
		"star":       gen.Star(200),
		"cliques":    gen.PathOfCliques(12, 9),
		"union":      disjointUnion(gen.Grid2D(15, 12), gen.RandomRegular(120, 6, 4), gen.Star(30), gen.Path(1), gen.Complete(9)),
		"union-pa":   disjointUnion(gen.PreferentialAttachment(400, 3, 5), gen.Grid3D(5, 5, 5), gen.Cycle(40)),
		"matching":   disjointUnion(matching...),
		"path-large": gen.Path(3000),
	}
}

// TestAnalyzeLaplacianMatchesReference: the bitset-switching analysis
// returns the list-only reference's order, column pointers, row positions
// and fill bit for bit, and abandons at exactly the same running fill at
// budgets 0, 1, nnz(L)−1 and nnz(L).
func TestAnalyzeLaplacianMatchesReference(t *testing.T) {
	phases := map[string]int{}
	for name, g := range analyzeCorpus() {
		a := LaplacianOf(g)
		comp, k := g.ConnectedComponents()
		ref, refFill, dense := analyzeLaplacianReference(a, comp, k, math.MaxInt64)
		switch dense {
		case 0:
			phases["at once"]++
		case len(ref.keep):
			phases["never"]++
		default:
			phases["late"]++
		}
		got, fill, err := AnalyzeLaplacian(a, comp, k, math.MaxInt64)
		if err != nil || got == nil {
			t.Fatalf("%s: unbounded analysis failed: %v", name, err)
		}
		if fill != refFill {
			t.Fatalf("%s: fill %d, reference %d", name, fill, refFill)
		}
		if !slices.Equal(got.keep, ref.keep) || !slices.Equal(got.pos, ref.pos) {
			t.Fatalf("%s: elimination order differs from the reference", name)
		}
		if !slices.Equal(got.colPtr, ref.colPtr) || !slices.Equal(got.rowPos, ref.rowPos) {
			t.Fatalf("%s: column structure differs from the reference", name)
		}
		if got.dense != dense {
			t.Fatalf("%s: switched to bitsets at step %d, want %d", name, got.dense, dense)
		}
		nnz := int64(len(ref.rowPos))
		for _, budget := range []int64{0, 1, nnz - 1, nnz} {
			if budget < 0 {
				continue
			}
			rs, rf, _ := analyzeLaplacianReference(a, comp, k, budget)
			s, f, err := AnalyzeLaplacian(a, comp, k, budget)
			if err != nil {
				t.Fatal(err)
			}
			if (s == nil) != (rs == nil) || f != rf {
				t.Fatalf("%s budget %d: abandoned=%v at fill %d, reference abandoned=%v at %d",
					name, budget, s == nil, f, rs == nil, rf)
			}
		}
	}
	for _, ph := range []string{"at once", "late", "never"} {
		if phases[ph] == 0 {
			t.Errorf("corpus has no graph that turns dense %s (%v)", ph, phases)
		}
	}
}

// TestLaplacianFactorFromParts: a factor reassembled from its own parts
// solves bit-for-bit; parts that violate a structural invariant are an
// error, never a panic.
func TestLaplacianFactorFromParts(t *testing.T) {
	g := disjointUnion(gen.Grid2D(6, 7), gen.Cycle(8))
	a := LaplacianOf(g)
	comp, k := g.ConnectedComponents()
	lf, err := NewLaplacianFactorW(0, a, comp, k)
	if err != nil {
		t.Fatal(err)
	}
	clone := func() ([]int, *SparseLDL) {
		f := lf.Factor()
		return append([]int(nil), lf.Order()...), &SparseLDL{
			ColPtr: append([]int32(nil), f.ColPtr...), RowPos: append([]int32(nil), f.RowPos...),
			L: append([]float64(nil), f.L...), D: append([]float64(nil), f.D...),
		}
	}
	order, f := clone()
	re, err := NewLaplacianFactorFromParts(1, g.N, comp, k, order, f)
	if err != nil {
		t.Fatal(err)
	}
	b := randCols(g.N, 1, 2)[0]
	requireBitwise(t, "reassembled", re.Solve(b), lf.Solve(b))

	bad := map[string]func(order []int, f *SparseLDL){
		"order-duplicate":    func(o []int, f *SparseLDL) { o[1] = o[0] },
		"order-out-of-range": func(o []int, f *SparseLDL) { o[0] = g.N },
		"order-negative":     func(o []int, f *SparseLDL) { o[0] = -1 },
		"order-grounded":     func(o []int, f *SparseLDL) { o[0] = g.N - 1 },
		"row-on-diagonal":    func(o []int, f *SparseLDL) { f.RowPos[0] = 0 },
		"row-out-of-range":   func(o []int, f *SparseLDL) { f.RowPos[len(f.RowPos)-1] = int32(len(f.D)) },
		"row-negative":       func(o []int, f *SparseLDL) { f.RowPos[0] = -1 },
		"rows-descending": func(o []int, f *SparseLDL) {
			for j := 0; j+1 < len(f.ColPtr); j++ {
				if lo, hi := f.ColPtr[j], f.ColPtr[j+1]; hi-lo >= 2 {
					f.RowPos[lo], f.RowPos[lo+1] = f.RowPos[lo+1], f.RowPos[lo]
					return
				}
			}
		},
		"colptr-decreasing": func(o []int, f *SparseLDL) { f.ColPtr[3] = f.ColPtr[4] + 1 },
		"colptr-overrun":    func(o []int, f *SparseLDL) { f.ColPtr[len(f.ColPtr)-1]++ },
		"pivot-zero":        func(o []int, f *SparseLDL) { f.D[2] = 0 },
		"pivot-nan":         func(o []int, f *SparseLDL) { f.D[2] = math.NaN() },
	}
	for name, corrupt := range bad {
		order, f := clone()
		corrupt(order, f)
		if _, err := NewLaplacianFactorFromParts(1, g.N, comp, k, order, f); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLaplacianFactorFromPartsSizeMismatch(t *testing.T) {
	g := gen.Path(5)
	comp, k := g.ConnectedComponents()
	lf, err := NewLaplacianFactorW(0, LaplacianOf(g), comp, k)
	if err != nil {
		t.Fatal(err)
	}
	f := lf.Factor()
	for name, tc := range map[string]struct {
		order []int
		f     *SparseLDL
	}{
		"short-order":  {lf.Order()[:3], f},
		"short-d":      {lf.Order(), &SparseLDL{ColPtr: f.ColPtr, RowPos: f.RowPos, L: f.L, D: f.D[:3]}},
		"short-l":      {lf.Order(), &SparseLDL{ColPtr: f.ColPtr, RowPos: f.RowPos, L: f.L[:1], D: f.D}},
		"short-colptr": {lf.Order(), &SparseLDL{ColPtr: f.ColPtr[:2], RowPos: f.RowPos, L: f.L, D: f.D}},
		"empty":        {nil, &SparseLDL{}},
	} {
		if _, err := NewLaplacianFactorFromParts(1, g.N, comp, k, tc.order, tc.f); err == nil {
			t.Errorf("%s: size mismatch accepted", name)
		}
	}
	if _, err := NewLaplacianFactorFromParts(1, g.N, comp[:2], k, lf.Order(), f); err == nil {
		t.Error("short component labeling accepted")
	}
}
