// Package matrix provides the linear-algebra substrate for the solver:
// sparse symmetric matrices in CSR form, graph-Laplacian conversions, the
// Gremban reduction from general SDD systems to Laplacians, parallel vector
// kernels, and the sparse minimum-degree LDLᵀ factorization used at the
// bottom of the preconditioner chain (the direct solve of Fact 6.4).
package matrix

import (
	"fmt"
	"math"
	"slices"

	"parlap/internal/graph"
	"parlap/internal/par"
)

// Sparse is a square sparse matrix in CSR form. Symmetric matrices store
// both triangles so MulVec needs no transpose pass.
//
// Column indices are int32: every matrix in the preconditioner chain has
// n « 2³¹, and the apply path is memory-bandwidth-bound, so halving the
// index traffic is a direct win.
type Sparse struct {
	N    int
	Off  []int     // length N+1
	Col  []int32   // length nnz
	Val  []float64 // length nnz
	Diag []float64 // cached diagonal, length N
}

// NNZ returns the number of stored entries.
func (a *Sparse) NNZ() int { return len(a.Col) }

// MemoryBytes estimates the matrix's retained footprint (CSR arrays plus
// the cached diagonal), honouring the compact index width.
func (a *Sparse) MemoryBytes() int64 {
	return int64(len(a.Off))*8 + int64(len(a.Col))*4 +
		int64(len(a.Val))*8 + int64(len(a.Diag))*8
}

// RowEntry is one (column, value) item of a matrix row under assembly.
type RowEntry struct {
	Col int32
	Val float64
}

// SortRow stably sorts row by column (typed, no reflection; the library's
// stable sort is an insertion sort on rows as short as a vertex's adjacency).
func SortRow(row []RowEntry) {
	slices.SortStableFunc(row, func(a, b RowEntry) int { return int(a.Col) - int(b.Col) })
}

// SortMergeRow stably sorts row by column and sums each run of equal
// columns in place, in input order; it returns the merged length.
func SortMergeRow(row []RowEntry) int {
	SortRow(row)
	k := 0
	for _, e := range row {
		if k > 0 && row[k-1].Col == e.Col {
			row[k-1].Val += e.Val
		} else {
			row[k] = e
			k++
		}
	}
	return k
}

// assembleRowsW is the one CSR assembly kernel. Row r owns the scratch
// segment ents[off[r]:off[r+1]]; load(r, seg) writes the row's entries into
// it (in the order duplicates are to be summed) and returns how many it
// wrote. Each row is then sorted and merged where it lies (SortMergeRow), the
// merged lengths are scanned into Off, and a second pass copies the rows out.
// Rows are independent, so both passes are row-parallel with no atomics and
// the result is identical for every worker count.
//
// With laplacian set, the entries are a vertex's off-diagonal couplings and
// each non-empty row gains its diagonal, the negated sum of the merged
// off-diagonals taken in ascending column order — so a Laplacian does not
// depend on the order its graph's edges were listed in.
func assembleRowsW(workers, n int, off []int, laplacian bool, load func(r int, seg []RowEntry) int) *Sparse {
	ents := make([]RowEntry, off[n])
	cnt := make([]int, n)
	par.ForChunkedW(workers, n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			seg := ents[off[r]:off[r+1]]
			k := SortMergeRow(seg[:load(r, seg)])
			if laplacian && k > 0 {
				k++
			}
			cnt[r] = k
		}
	})
	a := &Sparse{N: n, Off: par.ScanW(workers, cnt), Diag: make([]float64, n)}
	a.Col = make([]int32, a.Off[n])
	a.Val = make([]float64, a.Off[n])
	par.ForChunkedW(workers, n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			at, end := a.Off[r], a.Off[r+1]
			if !laplacian {
				for _, e := range ents[off[r] : off[r]+end-at] {
					a.Col[at], a.Val[at] = e.Col, e.Val
					if int(e.Col) == r {
						a.Diag[r] = e.Val
					}
					at++
				}
				continue
			}
			if at == end {
				continue
			}
			d, dAt := 0.0, -1
			for _, e := range ents[off[r] : off[r]+end-at-1] {
				if dAt < 0 && int(e.Col) > r {
					dAt = at
					at++
				}
				a.Col[at], a.Val[at] = e.Col, e.Val
				d -= e.Val
				at++
			}
			if dAt < 0 {
				dAt = at
			}
			a.Col[dAt], a.Val[dAt], a.Diag[r] = int32(r), d, d
		}
	})
	return a
}

// NewSparseFromTriplets builds a CSR matrix from (row, col, val) triplets,
// summing duplicates. Triplets are provided via parallel slices.
func NewSparseFromTriplets(n int, rows, cols []int, vals []float64) (*Sparse, error) {
	return NewSparseFromTripletsW(0, n, rows, cols, vals)
}

// NewSparseFromTripletsW is NewSparseFromTriplets with an explicit worker
// count (0 = GOMAXPROCS, 1 = sequential): a stable bucket-by-row
// (par.PackByKeyW) followed by the row assembly kernel, so duplicates are
// summed in input order and the matrix is identical for every worker count.
func NewSparseFromTripletsW(workers, n int, rows, cols []int, vals []float64) (*Sparse, error) {
	if len(rows) != len(cols) || len(rows) != len(vals) {
		return nil, fmt.Errorf("matrix: triplet slices have mismatched lengths")
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("matrix: n=%d exceeds the int32 column index range", n)
	}
	m := len(rows)
	// Parallel range validation: min-reduce the first offending index.
	bad := par.ReduceIntW(workers, m, m, func(i int) int {
		if rows[i] < 0 || rows[i] >= n || cols[i] < 0 || cols[i] >= n {
			return i
		}
		return m
	}, func(a, b int) int {
		if a < b {
			return a
		}
		return b
	})
	if bad < m {
		return nil, fmt.Errorf("matrix: triplet %d out of range", bad)
	}
	off, order := par.PackByKeyW(workers, m, n, func(i int) int { return rows[i] })
	return assembleRowsW(workers, n, off, false, func(r int, seg []RowEntry) int {
		for j, i := range order[off[r]:off[r+1]] {
			seg[j] = RowEntry{int32(cols[i]), vals[i]}
		}
		return len(seg)
	}), nil
}

// LaplacianOf builds the graph Laplacian L(g): L[i][i] = weighted degree,
// L[i][j] = -w(i,j) summed over parallel edges. Self-loops are ignored (they
// cancel in a Laplacian).
func LaplacianOf(g *graph.Graph) *Sparse { return LaplacianOfW(0, g) }

// LaplacianOfW is LaplacianOf with an explicit worker count. The graph is
// already row-grouped (its CSR), so each vertex's adjacency feeds the
// assembly kernel directly: parallel edges are summed in adjacency order —
// the order of the edge list — and the diagonal in ascending neighbour order.
func LaplacianOfW(workers int, g *graph.Graph) *Sparse {
	if g.N > math.MaxInt32 {
		panic(fmt.Sprintf("matrix: n=%d exceeds the int32 column index range", g.N))
	}
	return assembleRowsW(workers, g.N, g.Off, true, func(u int, seg []RowEntry) int {
		k := 0
		for i := g.Off[u]; i < g.Off[u+1]; i++ {
			if v, w := g.Adj[i], g.Wt[i]; v != u && w != 0 {
				seg[k] = RowEntry{int32(v), -w}
				k++
			}
		}
		return k
	})
}

// GraphOfW recovers the weighted graph from a Laplacian-structured matrix
// (strictly negative off-diagonals become edges), building its CSR on the
// given worker count. It inverts LaplacianOf up to parallel-edge merging.
func GraphOfW(workers int, a *Sparse) *graph.Graph {
	var edges []graph.Edge
	for r := 0; r < a.N; r++ {
		for i := a.Off[r]; i < a.Off[r+1]; i++ {
			c := int(a.Col[i])
			if c > r && a.Val[i] < 0 {
				edges = append(edges, graph.Edge{U: r, V: c, W: -a.Val[i]})
			}
		}
	}
	return graph.FromEdgesW(workers, a.N, edges)
}

// MulVec computes y = A·x in parallel over rows.
func (a *Sparse) MulVec(x, y []float64) { a.MulVecW(0, x, y) }

// MulVecW is MulVec with an explicit worker count. Rows are independent, so
// the workers==1 fast path (no closure, no goroutines, no allocation) is
// bitwise identical to every parallel schedule.
func (a *Sparse) MulVecW(workers int, x, y []float64) {
	if par.Sequential(workers) {
		mulVecRows(a, x, y, 0, a.N)
		return
	}
	par.ForChunkedW(workers, a.N, func(lo, hi int) {
		mulVecRows(a, x, y, lo, hi)
	})
}

// mulVecRows is the row kernel shared by the sequential fast path and each
// parallel chunk (named, not a closure: the sequential call must not
// allocate).
func mulVecRows(a *Sparse, x, y []float64, lo, hi int) {
	off, cols, vals := a.Off, a.Col, a.Val
	y = y[lo:hi]
	for i := range y {
		r := lo + i
		rv := vals[off[r]:off[r+1]]
		rc := cols[off[r]:off[r+1]]
		rc = rc[:len(rv)]
		var s float64
		for q, v := range rv {
			s += v * x[rc[q]]
		}
		y[i] = s
	}
}

// Apply allocates and returns A·x.
func (a *Sparse) Apply(x []float64) []float64 {
	y := make([]float64, a.N)
	a.MulVec(x, y)
	return y
}

// IsSDD reports whether the matrix is symmetric diagonally dominant:
// symmetric with A[i][i] >= Σ_{j≠i} |A[i][j]| (up to tol relative slack).
func (a *Sparse) IsSDD(tol float64) bool {
	// Symmetry check via entry lookup.
	get := func(r, c int) float64 {
		for i := a.Off[r]; i < a.Off[r+1]; i++ {
			if int(a.Col[i]) == c {
				return a.Val[i]
			}
		}
		return 0
	}
	for r := 0; r < a.N; r++ {
		offSum := 0.0
		for i := a.Off[r]; i < a.Off[r+1]; i++ {
			c := int(a.Col[i])
			if c == r {
				continue
			}
			v := a.Val[i]
			if math.Abs(v-get(c, r)) > tol*(1+math.Abs(v)) {
				return false
			}
			offSum += math.Abs(v)
		}
		if a.Diag[r] < offSum-tol*(1+offSum) {
			return false
		}
	}
	return true
}

// QuadForm returns xᵀAx.
func (a *Sparse) QuadForm(x []float64) float64 {
	return Dot(x, a.Apply(x))
}
