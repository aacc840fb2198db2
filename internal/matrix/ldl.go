package matrix

import (
	"fmt"
	"math"
	"slices"
)

// SparseLDL is a sparse LDLᵀ factorization P·A·Pᵀ = L·D·Lᵀ of a symmetric
// positive (semi)definite matrix: the unit lower triangle L in packed
// columns (diagonal implicit) and the diagonal D. It is the bottom-level
// direct solver of the preconditioner chain. The paper's Fact 6.4 uses a
// dense bottom; here the elimination order is chosen to keep L sparse, so
// the substitution sweeps cost 2·nnz(L) multiply-adds instead of n² — at
// the price of running them sequentially (depth nnz(L), not the dense
// factor's O(n)).
//
// The fields are exported for snapshot serialization; a factor is read-only
// after construction.
type SparseLDL struct {
	// ColPtr (length n+1) delimits the columns: column j's below-diagonal
	// entries are RowPos/L[ColPtr[j]:ColPtr[j+1]].
	ColPtr []int32
	// RowPos holds each entry's row, strictly below the diagonal and
	// ascending within a column.
	RowPos []int32
	L      []float64
	// D is the pivot diagonal; +Inf marks a semidefinite pivot whose
	// direction the solve zeroes (x/+Inf = 0).
	D []float64
}

// Dim returns the factored system size.
func (f *SparseLDL) Dim() int { return len(f.D) }

// NNZ returns the number of stored below-diagonal entries of L.
func (f *SparseLDL) NNZ() int { return len(f.RowPos) }

// MemoryBytes returns the factor's retained footprint.
func (f *SparseLDL) MemoryBytes() int64 {
	return int64(len(f.ColPtr)+len(f.RowPos))*4 + int64(len(f.L)+len(f.D))*8
}

// validate checks every structural invariant the substitution sweeps index
// by, so a factor assembled from untrusted parts can fail here but never
// panic or read out of bounds in a solve.
func (f *SparseLDL) validate() error {
	n := len(f.D)
	if len(f.ColPtr) != n+1 || len(f.L) != len(f.RowPos) {
		return fmt.Errorf("matrix: sparse factor has %d column pointers, %d rows, %d values for dimension %d",
			len(f.ColPtr), len(f.RowPos), len(f.L), n)
	}
	if f.ColPtr[0] != 0 || int(f.ColPtr[n]) != len(f.RowPos) {
		return fmt.Errorf("matrix: sparse factor column pointers span [%d, %d], want [0, %d]", f.ColPtr[0], f.ColPtr[n], len(f.RowPos))
	}
	for j := 0; j < n; j++ {
		lo, hi := f.ColPtr[j], f.ColPtr[j+1]
		if lo > hi || int(hi) > len(f.RowPos) {
			return fmt.Errorf("matrix: sparse factor column %d spans [%d, %d)", j, lo, hi)
		}
		if !(f.D[j] > 0) {
			return fmt.Errorf("matrix: sparse factor pivot %d is %g", j, f.D[j])
		}
		prev := int32(j)
		for _, r := range f.RowPos[lo:hi] {
			if r <= prev || int(r) >= n {
				return fmt.Errorf("matrix: sparse factor column %d has row %d (want ascending in (%d, %d))", j, r, prev, n)
			}
			prev = r
		}
	}
	return nil
}

// solveInPlace solves L·D·Lᵀ x = b over x (holding b on entry). Nothing is
// allocated.
func (f *SparseLDL) solveInPlace(x []float64) {
	colPtr, rowPos, lv, d := f.ColPtr, f.RowPos, f.L, f.D
	x = x[:len(d)]
	// Forward solve L y = b, column-oriented.
	for j, xj := range x {
		vals := lv[colPtr[j]:colPtr[j+1]]
		rows := rowPos[colPtr[j]:colPtr[j+1]]
		rows = rows[:len(vals)]
		for q, l := range vals {
			x[rows[q]] -= l * xj
		}
	}
	// Diagonal solve fused into the backward solve Lᵀ x = D⁻¹ y.
	for j := len(d) - 1; j >= 0; j-- {
		vals := lv[colPtr[j]:colPtr[j+1]]
		rows := rowPos[colPtr[j]:colPtr[j+1]]
		rows = rows[:len(vals)]
		s := x[j] / d[j]
		for q, l := range vals {
			s -= l * x[rows[q]]
		}
		x[j] = s
	}
}

// solveBlockInPlace is solveInPlace over a contiguous n×k Block at width 2
// or 4: lane c performs exactly solveInPlace's operations on lane c's
// values in the same order (only the L-entry loads are shared), so it is
// bitwise identical. Other widths panic (see the block kernels in block.go).
func (f *SparseLDL) solveBlockInPlace(x *Block) {
	switch x.K() {
	case 2:
		f.solveBlock2(x.data)
	case 4:
		f.solveBlock4(x.data)
	default:
		panicWidth("SparseLDL block solve", x.K())
	}
}

// solveBlock2 is solveBlockInPlace's body at width 2 over the n×2 backing
// x: the pivot row's lanes are held in locals through each column sweep.
func (f *SparseLDL) solveBlock2(x []float64) {
	colPtr, rowPos, lv, d := f.ColPtr, f.RowPos, f.L, f.D
	for j := range d {
		vals := lv[colPtr[j]:colPtr[j+1]]
		rows := rowPos[colPtr[j]:colPtr[j+1]]
		rows = rows[:len(vals)]
		xj := x[j*2 : j*2+2 : j*2+2]
		x0, x1 := xj[0], xj[1]
		for q, l := range vals {
			r := int(rows[q]) * 2
			xr := x[r : r+2 : r+2]
			xr[0] -= l * x0
			xr[1] -= l * x1
		}
	}
	for j := len(d) - 1; j >= 0; j-- {
		vals := lv[colPtr[j]:colPtr[j+1]]
		rows := rowPos[colPtr[j]:colPtr[j+1]]
		rows = rows[:len(vals)]
		xj := x[j*2 : j*2+2 : j*2+2]
		s0, s1 := xj[0]/d[j], xj[1]/d[j]
		for q, l := range vals {
			r := int(rows[q]) * 2
			xr := x[r : r+2 : r+2]
			s0 -= l * xr[0]
			s1 -= l * xr[1]
		}
		xj[0], xj[1] = s0, s1
	}
}

// solveBlock4 is solveBlock2 at width 4.
func (f *SparseLDL) solveBlock4(x []float64) {
	colPtr, rowPos, lv, d := f.ColPtr, f.RowPos, f.L, f.D
	for j := range d {
		vals := lv[colPtr[j]:colPtr[j+1]]
		rows := rowPos[colPtr[j]:colPtr[j+1]]
		rows = rows[:len(vals)]
		xj := x[j*4 : j*4+4 : j*4+4]
		x0, x1, x2, x3 := xj[0], xj[1], xj[2], xj[3]
		for q, l := range vals {
			r := int(rows[q]) * 4
			xr := x[r : r+4 : r+4]
			xr[0] -= l * x0
			xr[1] -= l * x1
			xr[2] -= l * x2
			xr[3] -= l * x3
		}
	}
	for j := len(d) - 1; j >= 0; j-- {
		vals := lv[colPtr[j]:colPtr[j+1]]
		rows := rowPos[colPtr[j]:colPtr[j+1]]
		rows = rows[:len(vals)]
		xj := x[j*4 : j*4+4 : j*4+4]
		s0, s1, s2, s3 := xj[0]/d[j], xj[1]/d[j], xj[2]/d[j], xj[3]/d[j]
		for q, l := range vals {
			r := int(rows[q]) * 4
			xr := x[r : r+4 : r+4]
			s0 -= l * xr[0]
			s1 -= l * xr[1]
			s2 -= l * xr[2]
			s3 -= l * xr[3]
		}
		xj[0], xj[1], xj[2], xj[3] = s0, s1, s2, s3
	}
}

// groundLast picks the highest-indexed vertex of each component as its
// grounded vertex, validating the labeling.
func groundLast(n int, comp []int, numComp int) ([]int, error) {
	if len(comp) != n {
		return nil, fmt.Errorf("matrix: component labels cover %d vertices, graph has %d", len(comp), n)
	}
	grounded := make([]int, numComp)
	for c := range grounded {
		grounded[c] = -1
	}
	for v := n - 1; v >= 0; v-- {
		c := comp[v]
		if c < 0 || c >= numComp {
			return nil, fmt.Errorf("matrix: component label %d out of range [0,%d)", c, numComp)
		}
		if grounded[c] < 0 {
			grounded[c] = v
		}
	}
	return grounded, nil
}

// LaplacianSymbolic is the symbolic half of a LaplacianFactor: the grounding,
// a minimum-degree elimination order of the grounded system and the column
// structure of its L. The chain build analyzes a level first (a bounded,
// value-free pass) to decide whether a direct solve there is cheap enough,
// and only then pays for FactorW.
type LaplacianSymbolic struct {
	n        int
	comp     []int
	numComp  int
	grounded []int
	keep     []int // elimination position -> original vertex
	pos      []int // original vertex -> elimination position, -1 if grounded
	colPtr   []int32
	rowPos   []int32
}

// Flops returns the multiply-adds of the numeric factorization, Σ|col|².
func (s *LaplacianSymbolic) Flops() int64 {
	var f int64
	for j := 0; j+1 < len(s.colPtr); j++ {
		c := int64(s.colPtr[j+1] - s.colPtr[j])
		f += c * c
	}
	return f
}

// minKeyHeap is a binary min-heap of degree<<32|vertex keys, so the minimum
// is the lowest degree with ties broken by lowest vertex id. Entries are
// never updated in place: a degree change pushes a fresh key and the stale
// one is skipped when it surfaces.
type minKeyHeap []uint64

func (h *minKeyHeap) push(key uint64) {
	*h = append(*h, key)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if a[p] <= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *minKeyHeap) pop() uint64 {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && a[c+1] < a[c] {
			c++
		}
		if a[i] <= a[c] {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return top
}

// AnalyzeLaplacian grounds the highest-indexed vertex of each component of
// the Laplacian a and computes a minimum-degree elimination order (exact
// external degree on the explicit elimination graph, ties by lowest vertex
// id) together with the column structure of L. The pass is sequential and
// reads no values, so its result depends only on a's sparsity pattern.
//
// It gives up as soon as the running nnz(L) exceeds maxFill, returning a nil
// structure and the count reached — a failed probe pays for the columns up
// to its budget (each a clique merge over the pivot's neighbours), not for
// the fill the level would have had.
func AnalyzeLaplacian(a *Sparse, comp []int, numComp int, maxFill int64) (s *LaplacianSymbolic, fill int64, err error) {
	n := a.N
	grounded, err := groundLast(n, comp, numComp)
	if err != nil {
		return nil, 0, err
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
			return nil, fill, nil
		}
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
	return s, fill, nil
}

// FactorW runs the numeric factorization of a (the matrix the structure was
// analyzed from) and returns the ready-to-solve factor. The left-looking
// column sweep is sequential, so L and D carry the same bits for every
// workers value; workers only sizes the component-index build.
func (s *LaplacianSymbolic) FactorW(workers int, a *Sparse) (*LaplacianFactor, error) {
	k := len(s.keep)
	f := &SparseLDL{
		ColPtr: s.colPtr, RowPos: s.rowPos,
		L: make([]float64, len(s.rowPos)), D: make([]float64, k),
	}
	w := make([]float64, k) // dense accumulator for the current column
	// Row lists of L, threaded through the columns: head[j] chains the
	// columns c < j whose next unconsumed entry is row j (next[c] indexes
	// that entry), so column j finds exactly the updates L(j,c) ≠ 0.
	head := make([]int32, k)
	link := make([]int32, k)
	next := make([]int32, k)
	for j := range head {
		head[j] = -1
	}
	for j := 0; j < k; j++ {
		v := s.keep[j]
		w[j] = a.Diag[v]
		for i := a.Off[v]; i < a.Off[v+1]; i++ {
			if u := int(a.Col[i]); u != v && s.pos[u] > j {
				w[s.pos[u]] = a.Val[i]
			}
		}
		for c := head[j]; c >= 0; {
			nc := link[c]
			p := next[c]
			end := f.ColPtr[c+1]
			t := f.L[p] * f.D[c]
			for q := p; q < end; q++ {
				w[f.RowPos[q]] -= f.L[q] * t
			}
			if p+1 < end {
				r := f.RowPos[p+1]
				next[c] = p + 1
				link[c] = head[r]
				head[r] = c
			}
			c = nc
		}
		lo, hi := f.ColPtr[j], f.ColPtr[j+1]
		d := w[j]
		w[j] = 0
		if d <= 0 || math.IsNaN(d) {
			if d > -1e-10*math.Abs(a.Diag[v])-1e-300 {
				// Semi-definite pivot breakdown: treat as a singular
				// direction (the column contributes nothing to the solve).
				f.D[j] = math.Inf(1)
				for q := lo; q < hi; q++ {
					w[f.RowPos[q]] = 0
				}
				continue
			}
			return nil, fmt.Errorf("matrix: non-PSD pivot %g at vertex %d", d, v)
		}
		f.D[j] = d
		for q := lo; q < hi; q++ {
			r := f.RowPos[q]
			f.L[q] = w[r] / d
			w[r] = 0
		}
		if lo < hi {
			r := f.RowPos[lo]
			next[j] = lo
			link[j] = head[r]
			head[r] = int32(j)
		}
	}
	return &LaplacianFactor{
		n: s.n, factor: f, keep: s.keep,
		comp: s.comp, numComp: s.numComp,
		compIdx:  NewCompIndexW(workers, s.comp, s.numComp),
		grounded: s.grounded,
	}, nil
}

// LaplacianFactor is a direct pseudo-inverse applier for a Laplacian: it
// grounds the last vertex of each connected component, factors the remaining
// principal submatrix as a sparse LDLᵀ in minimum-degree order, then solves
// and re-centers per component.
type LaplacianFactor struct {
	n      int
	factor *SparseLDL
	// keep lists the kept (non-grounded) vertices in elimination order: the
	// gather into the grounded system applies the factor's permutation.
	keep     []int
	comp     []int
	numComp  int
	compIdx  *CompIndex // component-sorted index cached for the projections
	grounded []int      // one grounded vertex per component
}

// MemoryBytes returns the factor's retained footprint: the sparse LDLᵀ
// factor plus the index maps.
func (lf *LaplacianFactor) MemoryBytes() int64 {
	return int64(len(lf.keep)+len(lf.comp)+len(lf.grounded))*8 +
		lf.compIdx.MemoryBytes() + lf.factor.MemoryBytes()
}

// NewLaplacianFactorW prepares a direct pseudo-inverse solver for the
// Laplacian a on the given worker count. comp must label a's connected
// components (as from graph.ConnectedComponents on the underlying graph).
func NewLaplacianFactorW(workers int, a *Sparse, comp []int, numComp int) (*LaplacianFactor, error) {
	s, _, err := AnalyzeLaplacian(a, comp, numComp, math.MaxInt64)
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, fmt.Errorf("matrix: factor of %d vertices exceeds the int32 index range", a.N)
	}
	return s.FactorW(workers, a)
}

// Factor exposes the grounded sparse factor for snapshot serialization.
func (lf *LaplacianFactor) Factor() *SparseLDL { return lf.factor }

// Order exposes the elimination order (position -> original vertex, the
// kept vertices only) for snapshot serialization; read-only.
func (lf *LaplacianFactor) Order() []int { return lf.keep }

// CompIndex exposes the component index of the factored Laplacian's graph;
// read-only.
func (lf *LaplacianFactor) CompIndex() *CompIndex { return lf.compIdx }

// NewLaplacianFactorFromParts reassembles a LaplacianFactor from snapshot
// data: the component labeling of the n-vertex bottom graph, the elimination
// order and the grounded SparseLDL, exactly as Order and Factor return them.
// The grounding and the component index are recomputed by the deterministic
// sweeps the build ran; order and factor are validated in full (the order
// must enumerate the kept vertices exactly once, every row position must lie
// strictly below its diagonal and in range), so a restored factor solves
// bit-for-bit like the original and an inconsistent one is an error, never a
// panic. Only the analysis and the numeric factorization are skipped.
func NewLaplacianFactorFromParts(workers, n int, comp []int, numComp int, order []int, f *SparseLDL) (*LaplacianFactor, error) {
	grounded, err := groundLast(n, comp, numComp)
	if err != nil {
		return nil, err
	}
	if err := f.validate(); err != nil {
		return nil, err
	}
	kept := n
	for _, v := range grounded {
		if v >= 0 {
			kept--
		}
	}
	if len(order) != kept || f.Dim() != kept {
		return nil, fmt.Errorf("matrix: grounded system has %d vertices, order lists %d, factor dimension %d", kept, len(order), f.Dim())
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] || grounded[comp[v]] == v {
			return nil, fmt.Errorf("matrix: elimination order is not a bijection onto the kept vertices (vertex %d)", v)
		}
		seen[v] = true
	}
	return &LaplacianFactor{
		n: n, factor: f, keep: order,
		comp: comp, numComp: numComp,
		compIdx:  NewCompIndexW(workers, comp, numComp),
		grounded: grounded,
	}, nil
}

// Solve returns x with L x = b restricted to range(L): the right-hand side
// is first projected per component (mean removed), the grounded system is
// solved, and the result is re-centered so each component of x sums to zero
// (the canonical pseudo-inverse representative).
func (lf *LaplacianFactor) Solve(b []float64) []float64 { return lf.SolveW(0, b) }

// SolveW is Solve with an explicit worker count for the projection passes
// (the substitution sweeps are inherently sequential). Results are bitwise
// identical for every workers value.
func (lf *LaplacianFactor) SolveW(workers int, b []float64) []float64 {
	x := make([]float64, lf.n)
	lf.SolveIntoW(workers, b, x, make([]float64, len(lf.keep)))
	return x
}

// SolveIntoW is SolveW into a caller-provided solution vector x (length n,
// fully overwritten) using scratch g (length GroundedLen()). b is not
// modified and must not alias x. Nothing is allocated (for a connected
// component structure), making the chain's bottom solve workspace-resident;
// the arithmetic is bitwise identical to SolveW.
func (lf *LaplacianFactor) SolveIntoW(workers int, b, x, g []float64) {
	// x doubles as the projected copy of b before the grounded gather.
	copy(x, b)
	ProjectOutConstantMaskedIdxW(workers, x, lf.compIdx)
	for i, v := range lf.keep {
		g[i] = x[v]
	}
	lf.factor.solveInPlace(g)
	for _, v := range lf.grounded {
		if v >= 0 {
			x[v] = 0
		}
	}
	for i, v := range lf.keep {
		x[v] = g[i]
	}
	ProjectOutConstantMaskedIdxW(workers, x, lf.compIdx)
}

// GroundedLen returns the size of the grounded system — the scratch length
// SolveIntoW requires.
func (lf *LaplacianFactor) GroundedLen() int { return len(lf.keep) }

// N returns the full (ungrounded) system size.
func (lf *LaplacianFactor) N() int { return lf.n }

// NNZ returns nnz(L), the below-diagonal entries of the sparse factor: one
// solve costs 2·NNZ multiply-adds.
func (lf *LaplacianFactor) NNZ() int { return lf.factor.NNZ() }

// SolveBlockIntoW is SolveIntoW over a contiguous n×k Block, k ∈ {1, 2, 4}:
// lane c is bitwise identical to SolveIntoW on lane c. x (n×k, fully
// overwritten) and the grounded scratch g (GroundedLen()×k) must not alias
// b. Nothing is allocated for a connected bottom graph.
func (lf *LaplacianFactor) SolveBlockIntoW(workers int, b, x, g *Block) {
	k := b.K()
	if k == 1 {
		lf.SolveIntoW(workers, b.Vec(), x.Vec(), g.Vec())
		return
	}
	x.CopyFrom(b)
	ProjectOutConstantMaskedBlockIdxW(workers, x, lf.compIdx)
	for i, v := range lf.keep {
		copy(g.Row(i), x.Row(v))
	}
	lf.factor.solveBlockInPlace(g)
	for _, v := range lf.grounded {
		if v >= 0 {
			clear(x.Row(v))
		}
	}
	for i, v := range lf.keep {
		copy(x.Row(v), g.Row(i))
	}
	ProjectOutConstantMaskedBlockIdxW(workers, x, lf.compIdx)
}
