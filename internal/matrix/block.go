package matrix

import (
	"fmt"
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

// VecBlock views the plain vector v as an n×1 block sharing v's backing.
func VecBlock(v []float64) Block { return Block{n: len(v), k: 1, data: v} }

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
// and the width-1 callers of the apply recursion are the intended callers.
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

// CopyLanesFrom fills the first lanes lanes of b (n×k, k ≥ lanes) with
// lanes lo … lo+lanes−1 of src and zeroes the rest: pure data movement, so
// a lane group solved on b does the arithmetic it would have done inside
// src, and a pad lane (see KeepLanes) starts exactly zero.
func (b *Block) CopyLanesFrom(src *Block, lo, lanes int) {
	k, sk := b.k, src.k
	if k == sk && lanes == k {
		copy(b.data, src.data)
		return
	}
	for v := 0; v < b.n; v++ {
		row := b.data[v*k : (v+1)*k]
		copy(row, src.data[v*sk+lo:v*sk+lo+lanes])
		clear(row[lanes:])
	}
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

// KeepLanes compacts the block in place to width k, len(keep) ≤ k ≤ K():
// lane j of the result is lane keep[j] of the input, keep strictly
// ascending, and lanes len(keep) … k−1 are zeroed — the pad that lets a
// block of 3 live lanes run at width 4. Surviving lanes' values are MOVED,
// never recomputed — compaction is pure data movement, so it cannot perturb
// any lane's arithmetic (the active-column dropout guarantee of the batched
// PCG driver). The in-place front-to-back sweep is safe because ascending
// keep and k ≤ K() make every write land at or before the position it reads
// (v*k+j <= v*K()+keep[j]), and a row's pad is written after its reads.
func (b *Block) KeepLanes(k int, keep []int) {
	oldK := b.k
	if len(keep) == oldK {
		return // ascending keep of full width is the identity
	}
	if k == 0 {
		b.k, b.data = 0, b.data[:0] // nothing moves: skip the row walk
		return
	}
	for v := 0; v < b.n; v++ {
		src := b.data[v*oldK:]
		dst := b.data[v*k : (v+1)*k]
		for j, kj := range keep {
			dst[j] = src[kj]
		}
		clear(dst[len(keep):])
	}
	b.k = k
	b.data = b.data[:b.n*k]
}

// The block kernels below take a workers knob only for their k = 1 case
// (a lone right-hand side still parallelizes inside each kernel), which
// delegates to the single-vector W kernels — except that the three fused
// outer-PCG kernels (MulVecDotBlockW, AxpyPairNormBlockW, DotsBlockW) run
// their own width-1 body at Workers 1. Wider blocks
// always run as one sequential sweep: a block solve parallelizes by
// splitting its lanes into groups (Solver.SolveBlockTraced), a far coarser
// grain than chunks of one level's vertices, and a sweep allocates
// nothing.
//
// A block solve hands its kernels widths 1, 2 and 4 only: it splits its
// lanes into groups of at most four and runs a group of three as a 4-wide
// block whose fourth lane is zero. So apart from the delegation at k = 1,
// a kernel has exactly two bodies (a fused kernel three), each written for
// its width: lane accumulators live in locals, a gathered row is the
// constant-length slice x[j : j+k : j+k] (one bounds check, none per
// lane), and streamed rows are walked with a stride-k index. A kernel
// panics on any other width — except the CSR sweep behind MulVecBlockW and
// MulVecAxpyBlockW, which keeps a per-lane loop for every other width.
// ChebUpdateBlockW, whose per-element operation is the same in every lane,
// sweeps the backing flat at every width. Whatever the body, lane c
// performs the single-vector kernel's float operations in the same order
// and expression shape — a fused kernel those of the kernel sequence it
// replaces, each reduction folding the same ReduceGrain chunks in chunk
// order — so the bits do not depend on which body ran; and every kernel is
// linear in each lane and divides by no lane value, so a zero pad lane
// stays exactly zero.

// panicWidth rejects a block width a kernel has no body for.
func panicWidth(kernel string, k int) {
	panic(fmt.Sprintf("matrix: %s on a %d-lane block (block kernels run 1, 2 or 4 lanes)", kernel, k))
}

// MulVecBlockW computes y = A·x lane-wise: lane c of y is bitwise identical
// to MulVecW on lane c of x. One CSR traversal serves all k lanes, and the
// interleaved layout makes the k reads per visited column index adjacent.
// y must not alias x.
func (a *Sparse) MulVecBlockW(workers int, x, y *Block) {
	if x.k == 1 {
		a.MulVecW(workers, x.Vec(), y.Vec())
		return
	}
	mulVecAxpyRows(a, x.k, x.data, y.data, 0, nil)
}

// MulVecAxpyBlockW fuses the Chebyshev residual update into the mat-vec:
// ap = A·x, then y = alpha·ap + y, in ONE pass over the rows — the n×k
// working set is swept once instead of twice. Row r's ap values depend only
// on x (which the kernel never writes) and y's update touches only row r,
// so the fusion is bitwise identical to MulVec followed by Axpy per lane.
// ap and y must not alias x or each other.
func (a *Sparse) MulVecAxpyBlockW(workers int, x, ap *Block, alpha float64, y *Block) {
	if x.k == 1 {
		a.MulVecW(workers, x.Vec(), ap.Vec())
		AxpyIntoW(workers, y.Vec(), alpha, ap.Vec(), y.Vec())
		return
	}
	mulVecAxpyRows(a, x.k, x.data, ap.data, alpha, y.data)
}

// mulVecAxpyRows is the k ≥ 2 sweep of MulVecBlockW (y == nil) and
// MulVecAxpyBlockW over n×k interleaved backings: ap = A·x, then
// y = alpha·ap + y when y is given. Widths other than 2 and 4 run the
// per-lane loop (the solver never hands it one, but callers outside it do).
func mulVecAxpyRows(a *Sparse, k int, x, ap []float64, alpha float64, y []float64) {
	switch k {
	case 2:
		mulVecAxpyRows2(a, x, ap, alpha, y, 0, a.N)
		return
	case 4:
		mulVecAxpyRows4(a, x, ap, alpha, y, 0, a.N)
		return
	}
	for r := 0; r < a.N; r++ {
		apr := ap[r*k : (r+1)*k]
		for c := range apr {
			apr[c] = 0
		}
		for i := a.Off[r]; i < a.Off[r+1]; i++ {
			v := a.Val[i]
			at := int(a.Col[i]) * k
			xr := x[at : at+k]
			for c := 0; c < k; c++ {
				apr[c] += v * xr[c]
			}
		}
		if y != nil {
			yr := y[r*k : (r+1)*k]
			for c := 0; c < k; c++ {
				yr[c] = alpha*apr[c] + yr[c]
			}
		}
	}
}

// mulVecAxpyRows2 is mulVecAxpyRows at width 2, over rows lo … hi−1.
func mulVecAxpyRows2(a *Sparse, x, ap []float64, alpha float64, y []float64, lo, hi int) {
	off, cols, vals := a.Off, a.Col, a.Val
	for r := lo; r < hi; r++ {
		rv := vals[off[r]:off[r+1]]
		rc := cols[off[r]:off[r+1]]
		rc = rc[:len(rv)]
		var s0, s1 float64
		for q, v := range rv {
			j := int(rc[q]) * 2
			xr := x[j : j+2 : j+2]
			s0 += v * xr[0]
			s1 += v * xr[1]
		}
		apr := ap[r*2 : r*2+2 : r*2+2]
		apr[0], apr[1] = s0, s1
		if y != nil {
			yr := y[r*2 : r*2+2 : r*2+2]
			yr[0], yr[1] = alpha*s0+yr[0], alpha*s1+yr[1]
		}
	}
}

// mulVecAxpyRows4 is mulVecAxpyRows2 at width 4.
func mulVecAxpyRows4(a *Sparse, x, ap []float64, alpha float64, y []float64, lo, hi int) {
	off, cols, vals := a.Off, a.Col, a.Val
	for r := lo; r < hi; r++ {
		rv := vals[off[r]:off[r+1]]
		rc := cols[off[r]:off[r+1]]
		rc = rc[:len(rv)]
		var s0, s1, s2, s3 float64
		for q, v := range rv {
			j := int(rc[q]) * 4
			xr := x[j : j+4 : j+4]
			s0 += v * xr[0]
			s1 += v * xr[1]
			s2 += v * xr[2]
			s3 += v * xr[3]
		}
		apr := ap[r*4 : r*4+4 : r*4+4]
		apr[0], apr[1], apr[2], apr[3] = s0, s1, s2, s3
		if y != nil {
			yr := y[r*4 : r*4+4 : r*4+4]
			yr[0], yr[1], yr[2], yr[3] = alpha*s0+yr[0], alpha*s1+yr[1], alpha*s2+yr[2], alpha*s3+yr[3]
		}
	}
}

// DotBlockIntoW computes out[c] = x[:,c]·y[:,c] for every lane in one pass.
// Each lane folds through exactly DotW's fixed-grain chunk tree, so out[c]
// is bitwise identical to DotW on lane c. out must hold k values. Nothing
// is allocated.
func DotBlockIntoW(workers int, x, y *Block, out []float64) {
	switch x.k {
	case 1:
		out[0] = DotW(workers, x.Vec(), y.Vec())
	case 2:
		out[0], out[1] = dotBlock2(x.data, y.data)
	case 4:
		out[0], out[1], out[2], out[3] = dotBlock4(x.data, y.data)
	default:
		panicWidth("DotBlockIntoW", x.k)
	}
}

// dotBlock2 is DotBlockIntoW's body at width 2: DotW's chunk tree per lane
// over the n×2 backings x and y.
func dotBlock2(x, y []float64) (a0, a1 float64) {
	const span = 2 * par.ReduceGrain
	for lo := 0; lo < len(x); lo += span {
		xs := x[lo:min(lo+span, len(x))]
		ys := y[lo : lo+len(xs)]
		var s0, s1 float64
		for i := 1; i < len(xs); i += 2 {
			s0 += xs[i-1] * ys[i-1]
			s1 += xs[i] * ys[i]
		}
		if lo == 0 {
			a0, a1 = s0, s1
		} else {
			a0 += s0
			a1 += s1
		}
	}
	return a0, a1
}

// dotBlock4 is dotBlock2 at width 4.
func dotBlock4(x, y []float64) (a0, a1, a2, a3 float64) {
	const span = 4 * par.ReduceGrain
	for lo := 0; lo < len(x); lo += span {
		xs := x[lo:min(lo+span, len(x))]
		ys := y[lo : lo+len(xs)]
		var s0, s1, s2, s3 float64
		for i := 3; i < len(xs); i += 4 {
			s0 += xs[i-3] * ys[i-3]
			s1 += xs[i-2] * ys[i-2]
			s2 += xs[i-1] * ys[i-1]
			s3 += xs[i] * ys[i]
		}
		if lo == 0 {
			a0, a1, a2, a3 = s0, s1, s2, s3
		} else {
			a0 += s0
			a1 += s1
			a2 += s2
			a3 += s3
		}
	}
	return a0, a1, a2, a3
}

// Norm2BlockIntoW computes each lane's Euclidean norm into out (k values).
func Norm2BlockIntoW(workers int, x *Block, out []float64) {
	DotBlockIntoW(workers, x, x, out)
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
	d := dst.data
	xd, yd := x.data[:len(d)], y.data[:len(d)]
	switch k {
	case 2:
		a0, a1 := alphas[0], alphas[1]
		for i := 1; i < len(d); i += 2 {
			d[i-1], d[i] = a0*xd[i-1]+yd[i-1], a1*xd[i]+yd[i]
		}
	case 4:
		a0, a1, a2, a3 := alphas[0], alphas[1], alphas[2], alphas[3]
		for i := 3; i < len(d); i += 4 {
			d[i-3], d[i-2] = a0*xd[i-3]+yd[i-3], a1*xd[i-2]+yd[i-2]
			d[i-1], d[i] = a2*xd[i-1]+yd[i-1], a3*xd[i]+yd[i]
		}
	default:
		panicWidth("AxpyBlockW", k)
	}
}

// ChebUpdateBlockW fuses the Chebyshev direction and iterate updates into
// one pass over the block: p = z (first iteration) or p = beta·p + z, then
// x = alpha·p + x. Both updates are elementwise with p's new value read by
// x's update at the same element, so the fusion performs per element
// exactly the float ops of the two separate kernels in the same order —
// bitwise identical, one sweep of the n×k working set instead of two. The
// scalars are shared by all lanes, so the sweep is flat at every width.
func ChebUpdateBlockW(workers int, p, z *Block, beta float64, x *Block, alpha float64, first bool) {
	if p.k == 1 {
		if first {
			copy(p.Vec(), z.Vec())
		} else {
			AxpyIntoW(workers, p.Vec(), beta, p.Vec(), z.Vec())
		}
		AxpyIntoW(workers, x.Vec(), alpha, p.Vec(), x.Vec())
		return
	}
	pd := p.data
	zd, xd := z.data[:len(pd)], x.data[:len(pd)]
	for i, pi := range zd {
		if !first {
			pi = beta*pd[i] + pi
		}
		pd[i] = pi
		xd[i] = alpha*pi + xd[i]
	}
}

// ProjectOutConstantMaskedBlockIdxW subtracts each lane's per-component
// mean in place — lane c is bitwise identical to
// ProjectOutConstantMaskedIdxW on that lane. Widths 2 and 4 run
// sequentially and allocate nothing: one component takes
// projectOutMean2/4, several the index's projectOutMeans.
func ProjectOutConstantMaskedBlockIdxW(workers int, x *Block, ci *CompIndex) {
	k := x.k
	switch {
	case k == 1:
		ProjectOutConstantMaskedIdxW(workers, x.Vec(), ci)
	case k != 2 && k != 4:
		panicWidth("ProjectOutConstantMaskedBlockIdxW", k)
	case ci.NumComp > 1:
		ci.projectOutMeans(x.data, k)
	case k == 2:
		projectOutMean2(x.data)
	default:
		projectOutMean4(x.data)
	}
}

// projectOutMean2 is the single-component path of
// ProjectOutConstantMaskedBlockIdxW at width 2 over the n×2 backing x:
// MeanW's chunk tree per lane, then one subtraction sweep.
func projectOutMean2(x []float64) {
	m0, m1 := laneMeans2(x)
	for i := 1; i < len(x); i += 2 {
		x[i-1], x[i] = x[i-1]-m0, x[i]-m1
	}
}

// projectOutMean4 is projectOutMean2 at width 4.
func projectOutMean4(x []float64) {
	m0, m1, m2, m3 := laneMeans4(x)
	for i := 3; i < len(x); i += 4 {
		x[i-3], x[i-2], x[i-1], x[i] = x[i-3]-m0, x[i-2]-m1, x[i-1]-m2, x[i]-m3
	}
}

// laneMeans2 returns the mean of each lane of the n×2 backing x, folded
// through MeanW's chunk tree.
func laneMeans2(x []float64) (m0, m1 float64) {
	const span = 2 * par.ReduceGrain
	for lo := 0; lo < len(x); lo += span {
		xs := x[lo:min(lo+span, len(x))]
		var s0, s1 float64
		for i := 1; i < len(xs); i += 2 {
			s0 += xs[i-1]
			s1 += xs[i]
		}
		if lo == 0 {
			m0, m1 = s0, s1
		} else {
			m0 += s0
			m1 += s1
		}
	}
	n := float64(len(x) / 2)
	return m0 / n, m1 / n
}

// laneMeans4 is laneMeans2 at width 4.
func laneMeans4(x []float64) (m0, m1, m2, m3 float64) {
	const span = 4 * par.ReduceGrain
	for lo := 0; lo < len(x); lo += span {
		xs := x[lo:min(lo+span, len(x))]
		var s0, s1, s2, s3 float64
		for i := 3; i < len(xs); i += 4 {
			s0 += xs[i-3]
			s1 += xs[i-2]
			s2 += xs[i-1]
			s3 += xs[i]
		}
		if lo == 0 {
			m0, m1, m2, m3 = s0, s1, s2, s3
		} else {
			m0 += s0
			m1 += s1
			m2 += s2
			m3 += s3
		}
	}
	n := float64(len(x) / 4)
	return m0 / n, m1 / n, m2 / n, m3 / n
}

// The outer PCG iteration's vector work (pcgFlexibleBlock in package
// solver) runs as three fused kernels, each one pass over its blocks in
// place of the kernel sequence it names. None of them projects: the driver
// projects its right-hand side once, and the preconditioner returns z
// already projected per component. Only the sequential bodies fuse:
// at k = 1 and Workers ≥ 2 a fused kernel runs the sequence it replaces,
// on the parallel single-vector kernels, so that path — which the CG and
// Jacobi-PCG baselines take at Workers 0 — keeps the work and speed it
// had.

// MulVecDotBlockW computes ap = A·p and, per lane, paps[c] = p[:,c]·ap[:,c]:
// each ReduceGrain chunk of rows is multiplied and its dot term taken at
// once, while the chunk is still in cache. Lane c is bitwise identical to
// MulVecBlockW followed by DotBlockIntoW(p, ap). ap must not alias p; paps
// must hold k values.
func (a *Sparse) MulVecDotBlockW(workers int, p, ap *Block, paps []float64) {
	k, pd, apd := p.k, p.data, ap.data
	if k != 1 && k != 2 && k != 4 {
		panicWidth("MulVecDotBlockW", k)
	}
	if k == 1 && !par.Sequential(workers) {
		a.MulVecW(workers, pd, apd)
		paps[0] = DotW(workers, pd, apd)
		return
	}
	d := mulVecDotRows(a, k, pd, apd)
	copy(paps, d[:k])
}

// mulVecDotRows is MulVecDotBlockW's sequential body at width k: it writes
// ap and returns each lane's p·ap, folded in ReduceGrain chunks.
func mulVecDotRows(a *Sparse, k int, p, ap []float64) (acc [4]float64) {
	for c := 0; c < a.N; c += par.ReduceGrain {
		e := min(c+par.ReduceGrain, a.N)
		ps, aps := p[c*k:e*k], ap[c*k:e*k]
		var s [4]float64
		switch k {
		case 1:
			mulVecRows(a, p, ap, c, e)
			s[0] = DotW(1, ps, aps)
		case 2:
			mulVecAxpyRows2(a, p, ap, 0, nil, c, e)
			s[0], s[1] = dotBlock2(ps, aps)
		case 4:
			mulVecAxpyRows4(a, p, ap, 0, nil, c, e)
			s[0], s[1], s[2], s[3] = dotBlock4(ps, aps)
		}
		for l := 0; l < k; l++ {
			if c == 0 {
				acc[l] = s[l]
			} else {
				acc[l] += s[l]
			}
		}
	}
	return acc
}

// AxpyPairNormBlockW takes the PCG step in one sweep: per lane c,
// x = alphas[c]·p + x and r = (−alphas[c])·ap + r, and norms[c] = ‖r[:,c]‖
// of the updated r. Lane c is bitwise identical to AxpyBlockW(x, alphas,
// p, x), AxpyBlockW(r, −alphas, ap, r) and Norm2BlockIntoW(r). x and r must
// not alias p, ap or each other; norms must hold k values.
func AxpyPairNormBlockW(workers int, x, r *Block, alphas []float64, p, ap *Block, norms []float64) {
	xd, rd, pd, apd := x.data, r.data, p.data, ap.data
	switch x.k {
	case 1:
		if !par.Sequential(workers) {
			AxpyIntoW(workers, xd, alphas[0], pd, xd)
			AxpyIntoW(workers, rd, -alphas[0], apd, rd)
			norms[0] = Norm2W(workers, rd)
			return
		}
		norms[0] = axpyPairNorm1(xd, rd, alphas[0], pd, apd)
	case 2:
		norms[0], norms[1] = axpyPairNorm2(xd, rd, alphas, pd, apd)
	case 4:
		norms[0], norms[1], norms[2], norms[3] = axpyPairNorm4(xd, rd, alphas, pd, apd)
	default:
		panicWidth("AxpyPairNormBlockW", x.k)
	}
	for c := 0; c < x.k; c++ {
		norms[c] = math.Sqrt(norms[c])
	}
}

// axpyPairNorm1 is AxpyPairNormBlockW's sequential body at width 1; it
// returns r·r, folded in ReduceGrain chunks.
func axpyPairNorm1(x, r []float64, alpha float64, p, ap []float64) (acc float64) {
	na := -alpha
	for c := 0; c < len(x); c += par.ReduceGrain {
		e := min(c+par.ReduceGrain, len(x))
		xs, rs, ps, aps := x[c:e], r[c:e], p[c:e], ap[c:e]
		rs, ps, aps = rs[:len(xs)], ps[:len(xs)], aps[:len(xs)]
		var s float64
		for i := range xs {
			xs[i] = alpha*ps[i] + xs[i]
			ri := na*aps[i] + rs[i]
			rs[i] = ri
			s += ri * ri
		}
		if c == 0 {
			acc = s
		} else {
			acc += s
		}
	}
	return acc
}

// axpyPairNorm2 is AxpyPairNormBlockW's body at width 2; it returns each
// lane's r·r.
func axpyPairNorm2(x, r, alphas, p, ap []float64) (d0, d1 float64) {
	const span = 2 * par.ReduceGrain
	a0, a1 := alphas[0], alphas[1]
	n0, n1 := -a0, -a1
	for lo := 0; lo < len(x); lo += span {
		xs := x[lo:min(lo+span, len(x))]
		rs, ps, aps := r[lo:lo+len(xs)], p[lo:lo+len(xs)], ap[lo:lo+len(xs)]
		var s0, s1 float64
		for i := 1; i < len(xs); i += 2 {
			xs[i-1], xs[i] = a0*ps[i-1]+xs[i-1], a1*ps[i]+xs[i]
			r0, r1 := n0*aps[i-1]+rs[i-1], n1*aps[i]+rs[i]
			rs[i-1], rs[i] = r0, r1
			s0 += r0 * r0
			s1 += r1 * r1
		}
		if lo == 0 {
			d0, d1 = s0, s1
		} else {
			d0 += s0
			d1 += s1
		}
	}
	return d0, d1
}

// axpyPairNorm4 is axpyPairNorm2 at width 4.
func axpyPairNorm4(x, r, alphas, p, ap []float64) (d0, d1, d2, d3 float64) {
	const span = 4 * par.ReduceGrain
	a0, a1, a2, a3 := alphas[0], alphas[1], alphas[2], alphas[3]
	n0, n1, n2, n3 := -a0, -a1, -a2, -a3
	for lo := 0; lo < len(x); lo += span {
		xs := x[lo:min(lo+span, len(x))]
		rs, ps, aps := r[lo:lo+len(xs)], p[lo:lo+len(xs)], ap[lo:lo+len(xs)]
		var s0, s1, s2, s3 float64
		for i := 3; i < len(xs); i += 4 {
			xs[i-3], xs[i-2] = a0*ps[i-3]+xs[i-3], a1*ps[i-2]+xs[i-2]
			xs[i-1], xs[i] = a2*ps[i-1]+xs[i-1], a3*ps[i]+xs[i]
			r0, r1 := n0*aps[i-3]+rs[i-3], n1*aps[i-2]+rs[i-2]
			r2, r3 := n2*aps[i-1]+rs[i-1], n3*aps[i]+rs[i]
			rs[i-3], rs[i-2], rs[i-1], rs[i] = r0, r1, r2, r3
			s0 += r0 * r0
			s1 += r1 * r1
			s2 += r2 * r2
			s3 += r3 * r3
		}
		if lo == 0 {
			d0, d1, d2, d3 = s0, s1, s2, s3
		} else {
			d0 += s0
			d1 += s1
			d2 += s2
			d3 += s3
		}
	}
	return d0, d1, d2, d3
}

// DotsBlockW computes per lane zdiffs[c] = z[:,c]·(r[:,c] − prev[:,c]) and
// rzs[c] = r[:,c]·z[:,c] and sets prev ← r, in one sweep that reads z and
// leaves it unchanged. Lane c is bitwise identical to SubIntoW(diff, r,
// prev), DotW(z, diff), DotW(r, z) and a copy of r into prev. z, r and prev
// must not alias; zdiffs and rzs must hold k values.
func DotsBlockW(workers int, z, r, prev *Block, zdiffs, rzs []float64) {
	zd, rd, pd := z.data, r.data, prev.data
	switch z.k {
	case 1:
		if !par.Sequential(workers) {
			zdiffs[0] = par.SumFloat64W(workers, len(zd), func(i int) float64 { return zd[i] * (rd[i] - pd[i]) })
			rzs[0] = DotW(workers, rd, zd)
			copy(pd, rd)
			return
		}
		zdiffs[0], rzs[0] = dots1(zd, rd, pd)
	case 2:
		zdiffs[0], zdiffs[1], rzs[0], rzs[1] = dots2(zd, rd, pd)
	case 4:
		d, e := dots4(zd, rd, pd)
		copy(zdiffs, d[:])
		copy(rzs, e[:])
	default:
		panicWidth("DotsBlockW", z.k)
	}
}

// dots1 is DotsBlockW's sequential sweep at width 1; it returns z·(r −
// prev) and r·z, each folded in ReduceGrain chunks.
func dots1(z, r, prev []float64) (zd, rz float64) {
	for c := 0; c < len(z); c += par.ReduceGrain {
		e := min(c+par.ReduceGrain, len(z))
		zs, rs, ps := z[c:e], r[c:e], prev[c:e]
		rs, ps = rs[:len(zs)], ps[:len(zs)]
		var s0, s1 float64
		for i, zi := range zs {
			ri := rs[i]
			s0 += zi * (ri - ps[i])
			s1 += ri * zi
			ps[i] = ri
		}
		if c == 0 {
			zd, rz = s0, s1
		} else {
			zd += s0
			rz += s1
		}
	}
	return zd, rz
}

// dots2 is DotsBlockW's sweep at width 2.
func dots2(z, r, prev []float64) (zd0, zd1, rz0, rz1 float64) {
	const span = 2 * par.ReduceGrain
	for lo := 0; lo < len(z); lo += span {
		zs := z[lo:min(lo+span, len(z))]
		rs, ps := r[lo:lo+len(zs)], prev[lo:lo+len(zs)]
		var s0, s1, t0, t1 float64
		for i := 1; i < len(zs); i += 2 {
			z0, z1 := zs[i-1], zs[i]
			r0, r1 := rs[i-1], rs[i]
			s0 += z0 * (r0 - ps[i-1])
			s1 += z1 * (r1 - ps[i])
			t0 += r0 * z0
			t1 += r1 * z1
			ps[i-1], ps[i] = r0, r1
		}
		if lo == 0 {
			zd0, zd1, rz0, rz1 = s0, s1, t0, t1
		} else {
			zd0 += s0
			zd1 += s1
			rz0 += t0
			rz1 += t1
		}
	}
	return zd0, zd1, rz0, rz1
}

// dots4 is dots2 at width 4; it returns the lanes' z·(r − prev) and r·z.
func dots4(z, r, prev []float64) (zd, rz [4]float64) {
	const span = 4 * par.ReduceGrain
	for lo := 0; lo < len(z); lo += span {
		zs := z[lo:min(lo+span, len(z))]
		rs, ps := r[lo:lo+len(zs)], prev[lo:lo+len(zs)]
		var s0, s1, s2, s3, t0, t1, t2, t3 float64
		for i := 3; i < len(zs); i += 4 {
			z0, z1, z2, z3 := zs[i-3], zs[i-2], zs[i-1], zs[i]
			r0, r1, r2, r3 := rs[i-3], rs[i-2], rs[i-1], rs[i]
			s0 += z0 * (r0 - ps[i-3])
			s1 += z1 * (r1 - ps[i-2])
			s2 += z2 * (r2 - ps[i-1])
			s3 += z3 * (r3 - ps[i])
			t0 += r0 * z0
			t1 += r1 * z1
			t2 += r2 * z2
			t3 += r3 * z3
			ps[i-3], ps[i-2], ps[i-1], ps[i] = r0, r1, r2, r3
		}
		if lo == 0 {
			zd = [4]float64{s0, s1, s2, s3}
			rz = [4]float64{t0, t1, t2, t3}
		} else {
			zd[0] += s0
			zd[1] += s1
			zd[2] += s2
			zd[3] += s3
			rz[0] += t0
			rz[1] += t1
			rz[2] += t2
			rz[3] += t3
		}
	}
	return zd, rz
}
