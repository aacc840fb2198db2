package matrix

import "parlap/internal/par"

// CompIndex is a component-sorted view of a partition comp: []int — the
// per-component vertex lists laid out flat, exactly what a segmented
// reduction needs to compute per-component sums without a scalar loop per
// component. Solver layers build one per chain level (and one for the input
// graph) at construction time and reuse it on every projection, the way the
// elimination caches its scatter reverse index.
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

// componentMeans returns the per-component mean of x via one flat segmented
// parallel reduction over the component-sorted order. The fold per component
// uses par's fixed-grain chunk tree, so the means are bitwise identical for
// every worker count.
func (ci *CompIndex) componentMeans(workers int, x []float64) []float64 {
	mu := par.SegmentedSumFloat64W(workers, ci.SegOff, func(i int) float64 {
		return x[ci.Order[i]]
	})
	for c := range mu {
		if sz := ci.SegOff[c+1] - ci.SegOff[c]; sz > 0 {
			mu[c] /= float64(sz)
		}
	}
	return mu
}

// ProjectOutConstantMaskedIdxW subtracts the per-component mean from x in
// place using the cached component index: a segmented parallel reduction for
// the sums, then a flat parallel subtraction pass. No per-component scalar
// loop remains; results are bitwise identical for every worker count.
func ProjectOutConstantMaskedIdxW(workers int, x []float64, ci *CompIndex) {
	if ci.NumComp == 1 {
		ProjectOutConstantW(workers, x)
		return
	}
	mu := ci.componentMeans(workers, x)
	comp := ci.Comp
	if par.Sequential(workers) {
		for i := range x {
			x[i] -= mu[comp[i]]
		}
		return
	}
	par.ForChunkedW(workers, len(x), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i] -= mu[comp[i]]
		}
	})
}
