package matrix

import (
	"math"

	"parlap/internal/par"
)

// Block is a dense n×k multi-vector: k right-hand-side columns over n
// vertices in ONE contiguous []float64 backing, laid out vertex-major
// (interleaved) — the value of column c at vertex v lives at data[v*k+c],
// so the k values a kernel touches while visiting a vertex or CSR row are
// adjacent in memory. This is the layout the batch engine's microbenchmark
// (BenchmarkBlockLayout) picked over column-major: every chain kernel walks
// the STRUCTURE (CSR rows, elimination ops, component order) in vertex
// order and fans out across columns at each stop, so vertex-major turns the
// k-slice pointer chase of [][]float64 into one streaming read per vertex.
//
// A Block is resized in place by Reshape, which reuses the backing array
// whenever capacity allows; contents are undefined after a reshape and
// every kernel fully overwrites its output, which is what lets pooled
// workspace blocks change width between batches without reallocation.
//
// The batch-solve contract is layout-independent: lane c of every Block
// kernel performs, per element, exactly the floating-point operations of
// the corresponding single-vector kernel in the same order, so block solves
// stay bitwise identical to k independent single solves.
type Block struct {
	n, k int
	data []float64
}

// NewBlock returns a zeroed n×k block.
func NewBlock(n, k int) *Block {
	return &Block{n: n, k: k, data: make([]float64, n*k)}
}

// N returns the vector length (vertex count).
func (b *Block) N() int { return b.n }

// K returns the number of columns (lanes).
func (b *Block) K() int { return b.k }

// Data exposes the interleaved backing array (length n*k, lane c of vertex
// v at index v*k+c). Intended for kernels and tests; treat as owned by the
// Block.
func (b *Block) Data() []float64 { return b.data }

// Cap returns the backing array's capacity in float64s — the retained
// footprint a byte-budgeted pool accounts for (Reshape never shrinks it).
func (b *Block) Cap() int { return cap(b.data) }

// Row returns vertex v's k contiguous lane values.
func (b *Block) Row(v int) []float64 { return b.data[v*b.k : (v+1)*b.k] }

// Vec views a single-column block (k == 1) as a plain vector. It panics on
// wider blocks — the k==1 fast paths delegating to single-vector kernels
// are the only intended callers.
func (b *Block) Vec() []float64 {
	if b.k != 1 {
		panic("matrix: Block.Vec on multi-column block")
	}
	return b.data[:b.n]
}

// Reshape resizes the block to n×k in place, reusing the backing array when
// its capacity allows (no allocation) and growing it otherwise. Contents
// are UNDEFINED afterwards — callers must fully overwrite before reading,
// which every chain kernel does. Works on the zero value.
func (b *Block) Reshape(n, k int) {
	need := n * k
	if cap(b.data) < need {
		b.data = make([]float64, need)
	} else {
		b.data = b.data[:need]
	}
	b.n, b.k = n, k
}

// Zero clears every element.
func (b *Block) Zero() {
	for i := range b.data {
		b.data[i] = 0
	}
}

// CopyFrom copies src's contents (same shape required).
func (b *Block) CopyFrom(src *Block) {
	copy(b.data, src.data)
}

// SetCol scatters the plain vector x (length n) into column c.
func (b *Block) SetCol(c int, x []float64) {
	k := b.k
	for v := range x {
		b.data[v*k+c] = x[v]
	}
}

// ColInto gathers column c into the plain vector dst (length n).
func (b *Block) ColInto(c int, dst []float64) {
	k := b.k
	for v := range dst {
		dst[v] = b.data[v*k+c]
	}
}

// KeepLanes compacts the block in place to the lanes listed in keep, which
// must be strictly ascending: lane j of the result is lane keep[j] of the
// input. Surviving lanes' values are MOVED, never recomputed — compaction
// is pure data movement, so it cannot perturb any lane's arithmetic (the
// active-column dropout guarantee of the batched PCG driver). The in-place
// front-to-back sweep is safe because ascending keep makes every write land
// at or before the position it reads (v*newK+j <= v*oldK+keep[j]).
func (b *Block) KeepLanes(keep []int) {
	oldK, newK := b.k, len(keep)
	if newK == oldK {
		return // ascending keep of full width is the identity
	}
	for v := 0; v < b.n; v++ {
		src := b.data[v*oldK:]
		dst := b.data[v*newK:]
		for j, kj := range keep {
			dst[j] = src[kj]
		}
	}
	b.k = newK
	b.data = b.data[:b.n*newK]
}

// MulVecBlockW computes y = A·x lane-wise: lane c of y is bitwise identical
// to MulVecW on lane c of x. One CSR traversal serves all k lanes, and the
// interleaved layout makes the k reads per visited column index adjacent.
// y must not alias x.
func (a *Sparse) MulVecBlockW(workers int, x, y *Block) {
	k := x.k
	if k == 1 {
		a.MulVecW(workers, x.Vec(), y.Vec())
		return
	}
	// Named row helper, closure only on the parallel branch (sequential
	// zero-alloc wall).
	if par.Sequential(workers) {
		a.mulVecBlockRows(x, y, k, 0, a.N)
		return
	}
	par.ForChunkedW(workers, a.N, func(lo, hi int) {
		a.mulVecBlockRows(x, y, k, lo, hi)
	})
}

func (a *Sparse) mulVecBlockRows(x, y *Block, k, lo, hi int) {
	for r := lo; r < hi; r++ {
		yr := y.data[r*k : (r+1)*k]
		for c := range yr {
			yr[c] = 0
		}
		for i := a.Off[r]; i < a.Off[r+1]; i++ {
			v := a.Val[i]
			at := int(a.Col[i]) * k
			xr := x.data[at : at+k]
			for c := 0; c < k; c++ {
				yr[c] += v * xr[c]
			}
		}
	}
}

// MulVecAxpyBlockW fuses the Chebyshev residual update into the mat-vec:
// ap = A·x, then y = alpha·ap + y, in ONE pass over the rows — the n×k
// working set is swept once instead of twice. Row r's ap values depend only
// on x (which the kernel never writes) and y's update touches only row r,
// so the fusion is bitwise identical to MulVec followed by Axpy per lane.
// ap and y must not alias x or each other.
func (a *Sparse) MulVecAxpyBlockW(workers int, x, ap *Block, alpha float64, y *Block) {
	k := x.k
	if k == 1 {
		a.MulVecW(workers, x.Vec(), ap.Vec())
		AxpyIntoW(workers, y.Vec(), alpha, ap.Vec(), y.Vec())
		return
	}
	// Named helper, closure only on the parallel branch: an escaping func
	// value heap-allocates at its declaration, which would break the
	// sequential path's zero-allocation guarantee.
	if par.Sequential(workers) {
		a.mulVecAxpyBlockRows(x, ap, alpha, y, k, 0, a.N)
		return
	}
	par.ForChunkedW(workers, a.N, func(lo, hi int) {
		a.mulVecAxpyBlockRows(x, ap, alpha, y, k, lo, hi)
	})
}

func (a *Sparse) mulVecAxpyBlockRows(x, ap *Block, alpha float64, y *Block, k, lo, hi int) {
	for r := lo; r < hi; r++ {
		apr := ap.data[r*k : (r+1)*k]
		for c := range apr {
			apr[c] = 0
		}
		for i := a.Off[r]; i < a.Off[r+1]; i++ {
			v := a.Val[i]
			at := int(a.Col[i]) * k
			xr := x.data[at : at+k]
			for c := 0; c < k; c++ {
				apr[c] += v * xr[c]
			}
		}
		yr := y.data[r*k : (r+1)*k]
		for c := 0; c < k; c++ {
			yr[c] = alpha*apr[c] + yr[c]
		}
	}
}

// DotBlockIntoW computes out[c] = x[:,c]·y[:,c] for every lane in one pass.
// Each lane folds through exactly DotW's fixed-grain chunk tree, so out[c]
// is bitwise identical to DotW on lane c. tmp (length >= k) is the
// sequential path's chunk-partial scratch; out must hold k values. The
// workers==1 path allocates nothing.
func DotBlockIntoW(workers int, x, y *Block, out, tmp []float64) {
	k := x.k
	if k == 1 {
		out[0] = DotW(workers, x.Vec(), y.Vec())
		return
	}
	n := x.n
	if par.Sequential(workers) {
		tmp = tmp[:k]
		for lo := 0; lo < n; lo += par.ReduceGrain {
			hi := lo + par.ReduceGrain
			if hi > n {
				hi = n
			}
			for c := range tmp {
				tmp[c] = 0
			}
			for i := lo; i < hi; i++ {
				xr := x.data[i*k : (i+1)*k]
				yr := y.data[i*k : (i+1)*k]
				for c := 0; c < k; c++ {
					tmp[c] += xr[c] * yr[c]
				}
			}
			if lo == 0 {
				copy(out[:k], tmp)
			} else {
				for c := 0; c < k; c++ {
					out[c] += tmp[c]
				}
			}
		}
		if n == 0 {
			for c := 0; c < k; c++ {
				out[c] = 0
			}
		}
		return
	}
	xd, yd := x.data, y.data
	sums := par.SumFloat64BatchW(workers, n, k, func(i, c int) float64 {
		return xd[i*k+c] * yd[i*k+c]
	})
	copy(out[:k], sums)
}

// Norm2BlockIntoW computes each lane's Euclidean norm; see DotBlockIntoW
// for the scratch contract.
func Norm2BlockIntoW(workers int, x *Block, out, tmp []float64) {
	DotBlockIntoW(workers, x, x, out, tmp)
	for c := 0; c < x.k; c++ {
		out[c] = math.Sqrt(out[c])
	}
}

// AxpyBlockW computes dst = diag(alphas)·x + y lane-wise: lane c gets
// dst[:,c] = alphas[c]·x[:,c] + y[:,c], bitwise identical to AxpyIntoW on
// that lane. dst may alias x or y.
func AxpyBlockW(workers int, dst *Block, alphas []float64, x, y *Block) {
	k := dst.k
	if k == 1 {
		AxpyIntoW(workers, dst.Vec(), alphas[0], x.Vec(), y.Vec())
		return
	}
	if par.Sequential(workers) {
		axpyBlockRows(dst, alphas, x, y, k, 0, dst.n)
		return
	}
	par.ForChunkedW(workers, dst.n, func(lo, hi int) {
		axpyBlockRows(dst, alphas, x, y, k, lo, hi)
	})
}

func axpyBlockRows(dst *Block, alphas []float64, x, y *Block, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		dr := dst.data[i*k : (i+1)*k]
		xr := x.data[i*k : (i+1)*k]
		yr := y.data[i*k : (i+1)*k]
		for c := 0; c < k; c++ {
			dr[c] = alphas[c]*xr[c] + yr[c]
		}
	}
}

// SubIntoBlockW computes dst = x − y lane-wise.
func SubIntoBlockW(workers int, dst, x, y *Block) {
	k := dst.k
	if k == 1 {
		SubIntoW(workers, dst.Vec(), x.Vec(), y.Vec())
		return
	}
	if par.Sequential(workers) {
		subBlockRows(dst, x, y, k, 0, dst.n)
		return
	}
	par.ForChunkedW(workers, dst.n, func(lo, hi int) {
		subBlockRows(dst, x, y, k, lo, hi)
	})
}

func subBlockRows(dst, x, y *Block, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		dr := dst.data[i*k : (i+1)*k]
		xr := x.data[i*k : (i+1)*k]
		yr := y.data[i*k : (i+1)*k]
		for c := 0; c < k; c++ {
			dr[c] = xr[c] - yr[c]
		}
	}
}

// ChebUpdateBlockW fuses the Chebyshev direction and iterate updates into
// one pass over the block: p = z (first iteration) or p = beta·p + z, then
// x = alpha·p + x. Both updates are elementwise with p's new value read by
// x's update at the same element, so the fusion performs per element
// exactly the float ops of the two separate kernels in the same order —
// bitwise identical, one sweep of the n×k working set instead of two.
func ChebUpdateBlockW(workers int, p, z *Block, beta float64, x *Block, alpha float64, first bool) {
	k := p.k
	if k == 1 {
		if first {
			copy(p.Vec(), z.Vec())
		} else {
			AxpyIntoW(workers, p.Vec(), beta, p.Vec(), z.Vec())
		}
		AxpyIntoW(workers, x.Vec(), alpha, p.Vec(), x.Vec())
		return
	}
	if par.Sequential(workers) {
		chebUpdateBlockRows(p, z, beta, x, alpha, first, k, 0, p.n)
		return
	}
	par.ForChunkedW(workers, p.n, func(lo, hi int) {
		chebUpdateBlockRows(p, z, beta, x, alpha, first, k, lo, hi)
	})
}

func chebUpdateBlockRows(p, z *Block, beta float64, x *Block, alpha float64, first bool, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		pr := p.data[i*k : (i+1)*k]
		zr := z.data[i*k : (i+1)*k]
		xr := x.data[i*k : (i+1)*k]
		if first {
			copy(pr, zr)
		} else {
			for c := 0; c < k; c++ {
				pr[c] = beta*pr[c] + zr[c]
			}
		}
		for c := 0; c < k; c++ {
			xr[c] = alpha*pr[c] + xr[c]
		}
	}
}

// ProjectOutConstantMaskedBlockIdxW subtracts each lane's per-component
// mean in place — lane c is bitwise identical to
// ProjectOutConstantMaskedIdxW on that lane. scratch (length >= 2k) makes
// the single-component workers==1 path allocation-free: scratch[:k] holds
// the lane means, scratch[k:2k] the chunk partials of the mean reduction.
// The multi-component path allocates its segmented sums, matching the
// single-vector kernel's behaviour.
func ProjectOutConstantMaskedBlockIdxW(workers int, x *Block, ci *CompIndex, scratch []float64) {
	k := x.k
	if k == 1 {
		ProjectOutConstantMaskedIdxW(workers, x.Vec(), ci)
		return
	}
	n := x.n
	if ci.NumComp == 1 {
		if par.Sequential(workers) {
			mus, tmp := scratch[:k], scratch[k:2*k]
			for lo := 0; lo < n; lo += par.ReduceGrain {
				hi := lo + par.ReduceGrain
				if hi > n {
					hi = n
				}
				for c := range tmp {
					tmp[c] = 0
				}
				for i := lo; i < hi; i++ {
					xr := x.data[i*k : (i+1)*k]
					for c := 0; c < k; c++ {
						tmp[c] += xr[c]
					}
				}
				if lo == 0 {
					copy(mus, tmp)
				} else {
					for c := 0; c < k; c++ {
						mus[c] += tmp[c]
					}
				}
			}
			for c := 0; c < k; c++ {
				mus[c] /= float64(n)
			}
			for i := 0; i < n; i++ {
				xr := x.data[i*k : (i+1)*k]
				for c := 0; c < k; c++ {
					xr[c] -= mus[c]
				}
			}
			return
		}
		xd := x.data
		mus := par.SumFloat64BatchW(workers, n, k, func(i, c int) float64 { return xd[i*k+c] })
		for c := range mus {
			mus[c] /= float64(n)
		}
		par.ForChunkedW(workers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				xr := xd[i*k : (i+1)*k]
				for c := 0; c < k; c++ {
					xr[c] -= mus[c]
				}
			}
		})
		return
	}
	xd := x.data
	mus := par.SegmentedSumFloat64BatchW(workers, k, ci.SegOff, func(i, col int) float64 {
		return xd[ci.Order[i]*k+col]
	})
	for s := 0; s < ci.NumComp; s++ {
		if sz := ci.SegOff[s+1] - ci.SegOff[s]; sz > 0 {
			for c := 0; c < k; c++ {
				mus[s*k+c] /= float64(sz)
			}
		}
	}
	comp := ci.Comp
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xr := xd[i*k : (i+1)*k]
			mr := mus[comp[i]*k : (comp[i]+1)*k]
			for c := 0; c < k; c++ {
				xr[c] -= mr[c]
			}
		}
	}
	if par.Sequential(workers) {
		body(0, n)
		return
	}
	par.ForChunkedW(workers, n, body)
}
