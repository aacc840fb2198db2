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
// index traffic is a direct win. Values are float64 by default; a matrix
// can opt into float32 storage (ConvertValues32) in which case Val is nil
// and the kernels read Val32, widening each coefficient to float64 before
// the (unchanged, fixed-grain) accumulation — so worker equivalence and
// block-vs-single equivalence hold at either precision.
type Sparse struct {
	N     int
	Off   []int     // length N+1
	Col   []int32   // length nnz
	Val   []float64 // length nnz, nil when values are stored as float32
	Val32 []float32 // length nnz when f32 storage is active, else nil
	Diag  []float64 // cached diagonal, length N (always float64)
}

// NNZ returns the number of stored entries.
func (a *Sparse) NNZ() int { return len(a.Col) }

// MemoryBytes estimates the matrix's retained footprint (CSR arrays plus
// the cached diagonal), honouring the compact index and value widths.
func (a *Sparse) MemoryBytes() int64 {
	return int64(len(a.Off))*8 + int64(len(a.Col))*4 +
		int64(len(a.Val))*8 + int64(len(a.Val32))*4 + int64(len(a.Diag))*8
}

// ValuesF32 reports whether the matrix stores its coefficients as float32.
func (a *Sparse) ValuesF32() bool { return a.Val == nil && a.Val32 != nil }

// ConvertValues32 switches the matrix to float32 value storage (round to
// nearest), dropping the float64 array. The caller may retain the returned
// prior Val slice to undo the conversion via RestoreValues64.
func (a *Sparse) ConvertValues32() []float64 {
	if a.Val == nil {
		return nil
	}
	v32 := make([]float32, len(a.Val))
	for i, v := range a.Val {
		v32[i] = float32(v)
	}
	saved := a.Val
	a.Val32 = v32
	a.Val = nil
	return saved
}

// RestoreValues64 undoes ConvertValues32 with the slice it returned.
func (a *Sparse) RestoreValues64(saved []float64) {
	a.Val = saved
	a.Val32 = nil
}

// value returns entry i's coefficient regardless of storage precision.
// Cold-path accessor; the hot kernels branch once per call instead.
func (a *Sparse) value(i int) float64 {
	if a.Val != nil {
		return a.Val[i]
	}
	return float64(a.Val32[i])
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

// GraphOf recovers the weighted graph from a Laplacian-structured matrix
// (strictly negative off-diagonals become edges). It inverts LaplacianOf up
// to parallel-edge merging.
func GraphOf(a *Sparse) *graph.Graph { return GraphOfW(0, a) }

// GraphOfW is GraphOf with an explicit worker count for the CSR build.
func GraphOfW(workers int, a *Sparse) *graph.Graph {
	var edges []graph.Edge
	for r := 0; r < a.N; r++ {
		for i := a.Off[r]; i < a.Off[r+1]; i++ {
			c := int(a.Col[i])
			if c > r && a.value(i) < 0 {
				edges = append(edges, graph.Edge{U: r, V: c, W: -a.value(i)})
			}
		}
	}
	return graph.FromEdgesW(workers, a.N, edges)
}

// MulVec computes y = A·x in parallel over rows.
func (a *Sparse) MulVec(x, y []float64) { a.MulVecW(0, x, y) }

// MulVecW is MulVec with an explicit worker count. Rows are independent, so
// the workers==1 fast path (no closure, no goroutines, no allocation) is
// bitwise identical to every parallel schedule. A float32-valued matrix
// widens each coefficient before the same left-to-right row accumulation,
// so the f32 path keeps the identical determinism walls.
func (a *Sparse) MulVecW(workers int, x, y []float64) {
	if par.Sequential(workers) {
		if a.Val == nil {
			mulVecRowsF32(a, x, y, 0, a.N)
			return
		}
		mulVecRows(a, x, y, 0, a.N)
		return
	}
	if a.Val == nil {
		par.ForChunkedW(workers, a.N, func(lo, hi int) {
			mulVecRowsF32(a, x, y, lo, hi)
		})
		return
	}
	par.ForChunkedW(workers, a.N, func(lo, hi int) {
		mulVecRows(a, x, y, lo, hi)
	})
}

// mulVecRows is the f64 row kernel shared by the sequential fast path and
// each parallel chunk (named, not a closure: the sequential call must not
// allocate).
func mulVecRows(a *Sparse, x, y []float64, lo, hi int) {
	for r := lo; r < hi; r++ {
		s := 0.0
		for i := a.Off[r]; i < a.Off[r+1]; i++ {
			s += a.Val[i] * x[a.Col[i]]
		}
		y[r] = s
	}
}

// mulVecRowsF32 is the float32-valued twin of mulVecRows.
func mulVecRowsF32(a *Sparse, x, y []float64, lo, hi int) {
	for r := lo; r < hi; r++ {
		s := 0.0
		for i := a.Off[r]; i < a.Off[r+1]; i++ {
			s += float64(a.Val32[i]) * x[a.Col[i]]
		}
		y[r] = s
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
				return a.value(i)
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
			v := a.value(i)
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
