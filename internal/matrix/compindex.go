package matrix

import "parlap/internal/par"

// CompIndex is a component-sorted view of a partition comp: []int — the
// per-component vertex lists laid out flat, so a projection can fold and
// update each component's vertices as one contiguous run of Order without
// scanning the whole vector per component. Solver layers build one per
// chain level (and one for the input graph) at construction time and reuse
// it on every projection, the way the elimination caches its scatter
// reverse index.
//
// A CompIndex is read-only after construction and safe for concurrent use.
type CompIndex struct {
	Comp    []int // vertex -> component id (the defining labeling, retained)
	NumComp int
	// Order lists the vertices grouped by component — ascending vertex id
	// within each component — and SegOff (length NumComp+1) delimits the
	// groups: Order[SegOff[c]:SegOff[c+1]] are exactly the vertices of
	// component c.
	Order  []int
	SegOff []int
}

// NewCompIndex builds the component-sorted index with the default worker
// count.
func NewCompIndex(comp []int, numComp int) *CompIndex {
	return NewCompIndexW(0, comp, numComp)
}

// NewCompIndexW is NewCompIndex with an explicit worker count. The stable
// counting-sort pack produces the identical layout for every setting.
func NewCompIndexW(workers int, comp []int, numComp int) *CompIndex {
	if numComp < 1 {
		numComp = 1
	}
	ci := &CompIndex{Comp: comp, NumComp: numComp}
	if numComp == 1 {
		// The single-component projection never consults Order/SegOff (it
		// subtracts the global mean); skip the pack on the common case.
		ci.SegOff = []int{0, len(comp)}
		return ci
	}
	ci.SegOff, ci.Order = par.PackByKeyW(workers, len(comp), numComp, func(i int) int {
		return comp[i]
	})
	return ci
}

// MemoryBytes estimates the index's retained footprint (excluding Comp,
// which callers account for separately — the index only references it).
func (ci *CompIndex) MemoryBytes() int64 {
	return int64(len(ci.Order)+len(ci.SegOff)) * 8
}

// ProjectOutConstantMaskedIdxW subtracts the per-component mean from x in
// place using the cached component index. A single component takes
// ProjectOutConstantW (MeanW's chunk tree, parallel at Workers ≥ 2);
// several take projectOutMeans, sequential and allocation-free at every
// worker count, so results are bitwise identical for every worker count.
func ProjectOutConstantMaskedIdxW(workers int, x []float64, ci *CompIndex) {
	if ci.NumComp == 1 {
		ProjectOutConstantW(workers, x)
		return
	}
	ci.projectOutMeans(x, 1)
}

// projectOutMeans subtracts each lane's per-component mean in place from
// the n×k vertex-major backing x (k = 1, 2 or 4), one component at a time.
// A component's sum folds its run of Order in the pieces that the fixed
// par.ReduceGrain chunks of the whole order cut it into — each piece summed
// from 0, the pieces added in chunk order, so a component holding every
// vertex folds exactly as MeanW does — and the mean is then subtracted over
// the same run. Lane c reproduces the k = 1 projection of that lane bit for bit. No
// per-component array, no goroutine, no allocation.
func (ci *CompIndex) projectOutMeans(x []float64, k int) {
	for s := 0; s < ci.NumComp; s++ {
		lo, hi := ci.SegOff[s], ci.SegOff[s+1]
		var mu [4]float64
		for a := lo; a < hi; {
			b := min((a/par.ReduceGrain+1)*par.ReduceGrain, hi)
			piece := foldLanes(x, k, ci.Order[a:b])
			for c := 0; c < k; c++ {
				mu[c] += piece[c]
			}
			a = b
		}
		run := ci.Order[lo:hi]
		for c := 0; c < k; c++ {
			mu[c] /= float64(len(run))
		}
		if k == 1 {
			for _, v := range run {
				x[v] -= mu[0]
			}
			continue
		}
		for _, v := range run {
			xv := x[v*k : v*k+k]
			for c := range xv {
				xv[c] -= mu[c]
			}
		}
	}
}

// foldLanes sums each of the k lanes of x over the vertices vs, from 0.
func foldLanes(x []float64, k int, vs []int) (sum [4]float64) {
	if k == 1 {
		var s0 float64
		for _, v := range vs {
			s0 += x[v]
		}
		sum[0] = s0
		return sum
	}
	for _, v := range vs {
		for c, xv := range x[v*k : v*k+k] {
			sum[c] += xv
		}
	}
	return sum
}
