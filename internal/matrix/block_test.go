package matrix

import (
	"fmt"
	"math/rand"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/par"
)

// The Block kernels' contract is bitwise: lane c of every block operation
// must equal (==, no tolerance) the single-vector kernel applied to lane c,
// for every worker count. These tests drive each kernel across k × Workers
// and compare against the single kernels directly.

func randCols(n, k int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, k)
	for c := range xs {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		xs[c] = x
	}
	return xs
}

func randLap(n int, seed int64) *Sparse {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{U: rng.Intn(i), V: i, W: rng.Float64() + 0.1})
	}
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v, W: rng.Float64()})
		}
	}
	return LaplacianOf(graph.FromEdges(n, edges))
}

func requireBitwise(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d differs: %g vs %g", name, i, got[i], want[i])
		}
	}
}

func blockFromCols(xs [][]float64) *Block {
	n, k := len(xs[0]), len(xs)
	b := NewBlock(n, k)
	for c, x := range xs {
		b.SetCol(c, x)
	}
	return b
}

// blockTestWidths covers the widths the block kernels run: the
// single-vector delegation (1) and both fixed-width bodies (2, 4).
var blockTestWidths = []int{1, 2, 4}

// mulVecTestWidths adds, for the CSR sweep that keeps a per-lane loop for
// every other width, the widths on either side of each body (3, 5, 8).
var mulVecTestWidths = []int{1, 2, 3, 4, 5, 8}

// otherWidths are block widths every kernel but the CSR sweep rejects.
var otherWidths = []int{3, 5, 8}
var blockTestWorkers = []int{1, 2, 4}

func TestBlockRoundTrip(t *testing.T) {
	xs := randCols(137, 5, 11)
	b := blockFromCols(xs)
	for c, x := range xs {
		got := make([]float64, len(x))
		b.ColInto(c, got)
		requireBitwise(t, fmt.Sprintf("col %d", c), got, x)
	}
	for v := 0; v < b.N(); v++ {
		row := b.Row(v)
		for c := range xs {
			if row[c] != xs[c][v] {
				t.Fatalf("Row(%d)[%d] = %g, want %g", v, c, row[c], xs[c][v])
			}
		}
	}
}

func TestBlockReshapeReusesBacking(t *testing.T) {
	b := NewBlock(100, 8)
	data := &b.Data()[0]
	b.Reshape(100, 3)
	if &b.Data()[0] != data {
		t.Fatal("Reshape to smaller width reallocated")
	}
	b.Reshape(100, 8)
	if &b.Data()[0] != data {
		t.Fatal("Reshape back to capacity reallocated")
	}
	if b.Cap() < 800 {
		t.Fatalf("Cap = %d, want >= 800", b.Cap())
	}
}

func TestBlockKeepLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		k := 1 + rng.Intn(8)
		xs := randCols(n, k, int64(trial))
		var keep []int
		for c := 0; c < k; c++ {
			if rng.Intn(3) > 0 {
				keep = append(keep, c)
			}
		}
		if trial == 0 {
			keep = nil // the last lane retiring: compaction to zero lanes
		}
		b := blockFromCols(xs)
		base := &b.Data()[0]
		b.KeepLanes(len(keep), keep)
		if b.K() != len(keep) || len(b.Data()) != n*len(keep) {
			t.Fatalf("shape %dx%d (%d values) after KeepLanes(%v)", b.N(), b.K(), len(b.Data()), keep)
		}
		for j, c := range keep {
			got := make([]float64, n)
			b.ColInto(j, got)
			requireBitwise(t, fmt.Sprintf("trial %d lane %d<-%d", trial, j, c), got, xs[c])
		}
		// The compacted block must reshape back to full width on its own
		// backing array.
		b.Reshape(n, k)
		if b.K() != k || len(b.Data()) != n*k || &b.Data()[0] != base {
			t.Fatalf("trial %d: Reshape(%d, %d) after KeepLanes(%v) gave %dx%d or a new backing", trial, n, k, keep, b.N(), b.K())
		}
	}
}

// TestBlockKeepLanesPad: compacting to a width wider than the survivors
// zeroes the pad lanes in place — 4 lanes dropping to 3 keep width 4 on the
// same backing with lane 3 zero — while compacting to the survivors' own
// width (4 → 2, 2 → 1) is the plain compaction.
func TestBlockKeepLanesPad(t *testing.T) {
	const n = 37
	for _, tc := range []struct {
		k, width int
		keep     []int
	}{
		{4, 4, []int{0, 2, 3}},
		{4, 4, []int{1, 2, 3}},
		{4, 2, []int{1, 3}},
		{2, 1, []int{1}},
	} {
		xs := randCols(n, tc.k, int64(tc.k+len(tc.keep)))
		b := blockFromCols(xs)
		base := &b.Data()[0]
		b.KeepLanes(tc.width, tc.keep)
		if b.K() != tc.width || len(b.Data()) != n*tc.width || &b.Data()[0] != base {
			t.Fatalf("KeepLanes(%d, %v) of %d lanes: got %dx%d (%d values) or a new backing",
				tc.width, tc.keep, tc.k, b.N(), b.K(), len(b.Data()))
		}
		got := make([]float64, n)
		for j, c := range tc.keep {
			b.ColInto(j, got)
			requireBitwise(t, fmt.Sprintf("KeepLanes(%d, %v) lane %d<-%d", tc.width, tc.keep, j, c), got, xs[c])
		}
		for j := len(tc.keep); j < tc.width; j++ {
			b.ColInto(j, got)
			requireBitwise(t, fmt.Sprintf("KeepLanes(%d, %v) pad lane %d", tc.width, tc.keep, j), got, make([]float64, n))
		}
	}
}

// TestBlockCopyLanesFromPad: copying 3 lanes into a 4-wide block fills
// lanes 0–2 from the source and zeroes lane 3, whatever it held before.
func TestBlockCopyLanesFromPad(t *testing.T) {
	const n, lo = 29, 2
	xs := randCols(n, 6, 3)
	src := blockFromCols(xs)
	dst := blockFromCols(randCols(n, 4, 4)) // stale values in every lane
	dst.CopyLanesFrom(src, lo, 3)
	got := make([]float64, n)
	for j := 0; j < 3; j++ {
		dst.ColInto(j, got)
		requireBitwise(t, fmt.Sprintf("lane %d", j), got, xs[lo+j])
	}
	dst.ColInto(3, got)
	requireBitwise(t, "pad lane", got, make([]float64, n))
}

// requirePanics fails the test unless f panics.
func requirePanics(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestBlockKernelsRejectOtherWidths: the block kernels run widths 1, 2 and
// 4 only and panic on any other, except the CSR sweep (MulVecBlockW,
// MulVecAxpyBlockW), which TestMulVecBlockBitwise holds bitwise at every
// width in mulVecTestWidths.
func TestBlockKernelsRejectOtherWidths(t *testing.T) {
	const n = 50
	ci := NewCompIndexW(1, make([]int, n), 1)
	g := gen.Grid2D(5, 10)
	comp, numComp := g.ConnectedComponents()
	lf, err := NewLaplacianFactorW(1, LaplacianOf(g), comp, numComp)
	if err != nil {
		t.Fatal(err)
	}
	a := LaplacianOf(g)
	for _, k := range otherWidths {
		x, y := blockFromCols(randCols(n, k, 1)), blockFromCols(randCols(n, k, 2))
		z, w := blockFromCols(randCols(n, k, 3)), blockFromCols(randCols(n, k, 4))
		out, out2 := make([]float64, k), make([]float64, k)
		gb := NewBlock(lf.GroundedLen(), k)
		for name, f := range map[string]func(){
			"DotBlockIntoW":                     func() { DotBlockIntoW(1, x, y, out) },
			"Norm2BlockIntoW":                   func() { Norm2BlockIntoW(1, x, out) },
			"AxpyBlockW":                        func() { AxpyBlockW(1, y, out, x, y) },
			"ProjectOutConstantMaskedBlockIdxW": func() { ProjectOutConstantMaskedBlockIdxW(1, x, ci) },
			"LaplacianFactor.SolveBlockIntoW":   func() { lf.SolveBlockIntoW(1, x, y, gb) },
			"MulVecDotBlockW":                   func() { a.MulVecDotBlockW(1, x, y, out) },
			"AxpyPairNormBlockW":                func() { AxpyPairNormBlockW(1, x, y, out2, z, w, out) },
			"DotsBlockW":                        func() { DotsBlockW(1, x, y, z, out, out2) },
		} {
			requirePanics(t, fmt.Sprintf("%s at width %d", name, k), f)
		}
	}
}

func TestMulVecBlockBitwise(t *testing.T) {
	a := randLap(700, 1)
	for _, k := range mulVecTestWidths {
		xs := randCols(a.N, k, 2)
		for _, w := range blockTestWorkers {
			x := blockFromCols(xs)
			y := NewBlock(a.N, k)
			a.MulVecBlockW(w, x, y)
			for c := 0; c < k; c++ {
				want := make([]float64, a.N)
				a.MulVecW(w, xs[c], want)
				got := make([]float64, a.N)
				y.ColInto(c, got)
				requireBitwise(t, fmt.Sprintf("k=%d w=%d col %d", k, w, c), got, want)
			}
		}
	}
}

func TestMulVecAxpyBlockBitwise(t *testing.T) {
	a := randLap(650, 3)
	for _, k := range mulVecTestWidths {
		xs := randCols(a.N, k, 4)
		ys := randCols(a.N, k, 5)
		alpha := -0.37
		for _, w := range blockTestWorkers {
			x, y := blockFromCols(xs), blockFromCols(ys)
			ap := NewBlock(a.N, k)
			a.MulVecAxpyBlockW(w, x, ap, alpha, y)
			for c := 0; c < k; c++ {
				wantAp := make([]float64, a.N)
				a.MulVecW(w, xs[c], wantAp)
				wantY := CopyVec(ys[c])
				AxpyIntoW(w, wantY, alpha, wantAp, wantY)
				gotAp, gotY := make([]float64, a.N), make([]float64, a.N)
				ap.ColInto(c, gotAp)
				y.ColInto(c, gotY)
				requireBitwise(t, fmt.Sprintf("ap k=%d w=%d col %d", k, w, c), gotAp, wantAp)
				requireBitwise(t, fmt.Sprintf("y k=%d w=%d col %d", k, w, c), gotY, wantY)
			}
		}
	}
}

func TestDotNorm2BlockBitwise(t *testing.T) {
	// Spans the ReduceGrain boundary so the chunked fold is exercised.
	for _, n := range []int{1, 100, par.ReduceGrain, par.ReduceGrain + 1, 3*par.ReduceGrain + 17} {
		for _, k := range blockTestWidths {
			xs, ys := randCols(n, k, 6), randCols(n, k, 7)
			for _, w := range blockTestWorkers {
				x, y := blockFromCols(xs), blockFromCols(ys)
				out := make([]float64, k)
				DotBlockIntoW(w, x, y, out)
				for c := 0; c < k; c++ {
					if want := DotW(w, xs[c], ys[c]); out[c] != want {
						t.Fatalf("dot n=%d k=%d w=%d col %d: %g vs %g", n, k, w, c, out[c], want)
					}
				}
				Norm2BlockIntoW(w, x, out)
				for c := 0; c < k; c++ {
					if want := Norm2W(w, xs[c]); out[c] != want {
						t.Fatalf("norm n=%d k=%d w=%d col %d: %g vs %g", n, k, w, c, out[c], want)
					}
				}
			}
		}
	}
}

func TestAxpySubChebBlockBitwise(t *testing.T) {
	n := 3*par.ReduceGrain + 5
	for _, k := range blockTestWidths {
		xs, ys, zs := randCols(n, k, 10), randCols(n, k, 11), randCols(n, k, 12)
		alphas := make([]float64, k)
		for c := range alphas {
			alphas[c] = 0.1 * float64(c+1)
		}
		for _, w := range blockTestWorkers {
			x, y := blockFromCols(xs), blockFromCols(ys)
			dst := NewBlock(n, k)
			AxpyBlockW(w, dst, alphas, x, y)
			for c := 0; c < k; c++ {
				want := make([]float64, n)
				AxpyIntoW(w, want, alphas[c], xs[c], ys[c])
				got := make([]float64, n)
				dst.ColInto(c, got)
				requireBitwise(t, fmt.Sprintf("axpy k=%d w=%d col %d", k, w, c), got, want)
			}
			// In place, as the PCG driver calls it: dst aliases y.
			yy := blockFromCols(ys)
			AxpyBlockW(w, yy, alphas, x, yy)
			for c := 0; c < k; c++ {
				want := CopyVec(ys[c])
				AxpyIntoW(w, want, alphas[c], xs[c], want)
				got := make([]float64, n)
				yy.ColInto(c, got)
				requireBitwise(t, fmt.Sprintf("axpy in place k=%d w=%d col %d", k, w, c), got, want)
			}
			for _, first := range []bool{true, false} {
				p, z, xb := blockFromCols(ys), blockFromCols(zs), blockFromCols(xs)
				const beta, alpha = 0.83, -1.21
				ChebUpdateBlockW(w, p, z, beta, xb, alpha, first)
				for c := 0; c < k; c++ {
					wantP := CopyVec(ys[c])
					if first {
						copy(wantP, zs[c])
					} else {
						AxpyIntoW(w, wantP, beta, wantP, zs[c])
					}
					wantX := CopyVec(xs[c])
					AxpyIntoW(w, wantX, alpha, wantP, wantX)
					gotP, gotX := make([]float64, n), make([]float64, n)
					p.ColInto(c, gotP)
					xb.ColInto(c, gotX)
					requireBitwise(t, fmt.Sprintf("cheb p first=%v k=%d w=%d col %d", first, k, w, c), gotP, wantP)
					requireBitwise(t, fmt.Sprintf("cheb x first=%v k=%d w=%d col %d", first, k, w, c), gotX, wantX)
				}
			}
		}
	}
}

func TestProjectBlockBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{5, par.ReduceGrain, par.ReduceGrain + 1, 2*par.ReduceGrain + 31} {
		for _, numComp := range []int{1, 3} {
			comp := randomPartition(rng, n, numComp)
			ci := NewCompIndexW(0, comp, numComp)
			for _, k := range blockTestWidths {
				xs := randCols(n, k, int64(14+numComp))
				for _, w := range blockTestWorkers {
					x := blockFromCols(xs)
					ProjectOutConstantMaskedBlockIdxW(w, x, ci)
					for c := 0; c < k; c++ {
						want := CopyVec(xs[c])
						ProjectOutConstantMaskedIdxW(w, want, ci)
						got := make([]float64, n)
						x.ColInto(c, got)
						requireBitwise(t, fmt.Sprintf("proj n=%d comps=%d k=%d w=%d col %d", n, numComp, k, w, c), got, want)
					}
				}
			}
		}
	}
}

// TestFusedPCGKernelsBitwise holds each fused outer-PCG kernel to the
// kernel sequence it replaces, bitwise, in every output: MulVecDotBlockW
// to MulVecBlockW + DotBlockIntoW; AxpyPairNormBlockW to two AxpyBlockW
// and Norm2BlockIntoW; DotsBlockW to r − prev, the two dots and prev ← r,
// leaving z as it was. It covers widths 1, 2 and 4, lengths on either side
// of the ReduceGrain chunk boundaries, and Workers 1, 2 and 4 (only k = 1
// parallelizes; the wider bodies ignore it).
func TestFusedPCGKernelsBitwise(t *testing.T) {
	for _, n := range []int{5, par.ReduceGrain, par.ReduceGrain + 1, 2*par.ReduceGrain + 31} {
		a := randLap(n, int64(n))
		for _, k := range blockTestWidths {
			p, q, r, z := randCols(n, k, 30), randCols(n, k, 31), randCols(n, k, 32), randCols(n, k, 33)
			alphas := randCols(k, 1, 34)[0]
			negAlphas := make([]float64, k)
			for c, al := range alphas {
				negAlphas[c] = -al
			}
			for _, w := range blockTestWorkers {
				label := fmt.Sprintf("n=%d k=%d w=%d", n, k, w)
				want, got := make([]float64, k), make([]float64, k)
				want2, got2 := make([]float64, k), make([]float64, k)

				pb, apWant, apGot := blockFromCols(p), NewBlock(n, k), blockFromCols(q)
				a.MulVecBlockW(w, pb, apWant)
				DotBlockIntoW(w, pb, apWant, want)
				a.MulVecDotBlockW(w, pb, apGot, got)
				requireBitwise(t, label+" MulVecDot ap", apGot.Data(), apWant.Data())
				requireBitwise(t, label+" MulVecDot paps", got, want)

				xWant, rWant := blockFromCols(q), blockFromCols(r)
				xGot, rGot := blockFromCols(q), blockFromCols(r)
				apb := blockFromCols(z)
				AxpyBlockW(w, xWant, alphas, pb, xWant)
				AxpyBlockW(w, rWant, negAlphas, apb, rWant)
				Norm2BlockIntoW(w, rWant, want)
				AxpyPairNormBlockW(w, xGot, rGot, alphas, pb, apb, got)
				requireBitwise(t, label+" AxpyPairNorm x", xGot.Data(), xWant.Data())
				requireBitwise(t, label+" AxpyPairNorm r", rGot.Data(), rWant.Data())
				requireBitwise(t, label+" AxpyPairNorm norms", got, want)

				rb, zb := blockFromCols(r), blockFromCols(z)
				prevWant, prevGot := blockFromCols(q), blockFromCols(q)
				diff := NewBlock(n, k)
				SubIntoW(w, diff.Data(), rb.Data(), prevWant.Data())
				DotBlockIntoW(w, zb, diff, want)
				DotBlockIntoW(w, rb, zb, want2)
				prevWant.CopyFrom(rb)
				DotsBlockW(w, zb, rb, prevGot, got, got2)
				requireBitwise(t, label+" Dots z", zb.Data(), blockFromCols(z).Data())
				requireBitwise(t, label+" Dots prev", prevGot.Data(), prevWant.Data())
				requireBitwise(t, label+" Dots zdiffs", got, want)
				requireBitwise(t, label+" Dots rzs", got2, want2)
			}
		}
	}
}

// The batch tests: the multi-RHS shapes the solver's batch engine feeds the
// Block kernels (odd widths, the default worker count 0, a fixed reference
// at Workers 1), each lane compared == against the single-vector kernel.

func TestMulVecBatchBitwise(t *testing.T) {
	a := randLap(700, 1)
	for _, k := range []int{1, 2, 5} {
		xs := randCols(a.N, k, 2)
		for _, w := range []int{1, 0, 3} {
			y := NewBlock(a.N, k)
			a.MulVecBlockW(w, blockFromCols(xs), y)
			for c := 0; c < k; c++ {
				ref := make([]float64, a.N)
				a.MulVecW(1, xs[c], ref)
				got := make([]float64, a.N)
				y.ColInto(c, got)
				requireBitwise(t, "mulvec", got, ref)
			}
		}
	}
}

func TestDotNormBatchBitwise(t *testing.T) {
	n, k := 5000, 4
	xs := randCols(n, k, 3)
	ys := randCols(n, k, 4)
	x, y := blockFromCols(xs), blockFromCols(ys)
	for _, w := range []int{1, 0, 2} {
		dots, norms := make([]float64, k), make([]float64, k)
		DotBlockIntoW(w, x, y, dots)
		Norm2BlockIntoW(w, x, norms)
		for c := 0; c < k; c++ {
			if dots[c] != DotW(1, xs[c], ys[c]) {
				t.Fatalf("dot column %d differs under workers=%d", c, w)
			}
			if norms[c] != Norm2W(1, xs[c]) {
				t.Fatalf("norm column %d differs under workers=%d", c, w)
			}
		}
	}
}

// TestDotBatchIntoBitwise reuses one out buffer across every call, the way
// the solver's per-iteration reductions do: values left in it by a wider or
// longer call must never leak into the next one.
func TestDotBatchIntoBitwise(t *testing.T) {
	out := make([]float64, 4)
	for _, n := range []int{1, par.ReduceGrain + 1, 3*par.ReduceGrain + 17} {
		for _, k := range blockTestWidths {
			xs, ys := randCols(n, k, 8), randCols(n, k, 9)
			x, y := blockFromCols(xs), blockFromCols(ys)
			for _, w := range blockTestWorkers {
				DotBlockIntoW(w, x, y, out[:k])
				for c := 0; c < k; c++ {
					if want := DotW(w, xs[c], ys[c]); out[c] != want {
						t.Fatalf("dot n=%d k=%d w=%d col %d: %g vs %g", n, k, w, c, out[c], want)
					}
				}
				Norm2BlockIntoW(w, x, out[:k])
				for c := 0; c < k; c++ {
					if want := Norm2W(w, xs[c]); out[c] != want {
						t.Fatalf("norm n=%d k=%d w=%d col %d: %g vs %g", n, k, w, c, out[c], want)
					}
				}
			}
		}
	}
}

func TestAxpySubBatchBitwise(t *testing.T) {
	n, k := 4000, 4
	xs := randCols(n, k, 5)
	ys := randCols(n, k, 6)
	alphas := []float64{0.5, -1.25, 3.75, -0.625}
	x, y := blockFromCols(xs), blockFromCols(ys)
	dst := NewBlock(n, k)
	AxpyBlockW(0, dst, alphas, x, y)
	got := make([]float64, n)
	for c := 0; c < k; c++ {
		ref := make([]float64, n)
		AxpyIntoW(1, ref, alphas[c], xs[c], ys[c])
		dst.ColInto(c, got)
		requireBitwise(t, "axpy", got, ref)
	}
}

// TestProjectBatchBitwise checks the block projection against the
// comp-array single-vector projection (no CompIndex on the reference side).
func TestProjectBatchBitwise(t *testing.T) {
	n, k := 6000, 4
	comp := make([]int, n)
	for _, tc := range []struct {
		name    string
		numComp int
		seed    int64
		workers int
		part    func(i int) int
	}{
		{"project-1comp", 1, 7, 0, func(int) int { return 0 }},
		{"project-4comp", 4, 8, 2, func(i int) int { return i % 4 }},
	} {
		for i := range comp {
			comp[i] = tc.part(i)
		}
		xs := randCols(n, k, tc.seed)
		x := blockFromCols(xs)
		ProjectOutConstantMaskedBlockIdxW(tc.workers, x, NewCompIndexW(0, comp, tc.numComp))
		got := make([]float64, n)
		for c := 0; c < k; c++ {
			ProjectOutConstantMaskedW(1, xs[c], comp, tc.numComp)
			x.ColInto(c, got)
			requireBitwise(t, tc.name, got, xs[c])
		}
	}
}

// TestProjectOutConstantMaskedBatchColumnParity drives the block projection
// over six components whose lanes carry distinct per-component offsets, so
// a lane or segment mix-up in the segmented sums shows as a wrong mean.
func TestProjectOutConstantMaskedBatchColumnParity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n, numComp, cols := 7000, 6, 4
	comp := randomPartition(rng, n, numComp)
	ci := NewCompIndexW(0, comp, numComp)
	xs := make([][]float64, cols)
	for c := range xs {
		xs[c] = make([]float64, n)
		for i := range xs[c] {
			xs[c][i] = rng.NormFloat64() + float64((comp[i]+c)%numComp)
		}
	}
	x := blockFromCols(xs)
	ProjectOutConstantMaskedBlockIdxW(2, x, ci)
	got := make([]float64, n)
	for c := range xs {
		ProjectOutConstantMaskedIdxW(1, xs[c], ci)
		x.ColInto(c, got)
		for i := range xs[c] {
			if got[i] != xs[c][i] {
				t.Fatalf("col %d entry %d: block %.17g != single %.17g", c, i, got[i], xs[c][i])
			}
		}
	}
}

// BenchmarkBlockLayout is the microbench behind the Block layout decision
// (README "Batch engine"): one inner-iteration-shaped pass — SpMM followed
// by the fused direction/iterate update — over (a) a column-major
// contiguous block (lane-contiguous, data[c*n+v]) and (b) the vertex-major
// interleaved Block (data[v*k+c]). Vertex-major wins because every kernel
// walks the CSR structure in vertex order and touches all k lanes at each
// stop.
func BenchmarkBlockLayout(b *testing.B) {
	a := randLap(40000, 21)
	n := a.N
	for _, k := range []int{4, 8, 16} {
		xs, ys := randCols(n, k, 22), randCols(n, k, 23)
		b.Run(fmt.Sprintf("k=%d/colmajor", k), func(b *testing.B) {
			x, y := make([]float64, n*k), make([]float64, n*k)
			for c := range xs {
				copy(x[c*n:(c+1)*n], xs[c])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for c := 0; c < k; c++ {
					xc, yc := x[c*n:(c+1)*n], y[c*n:(c+1)*n]
					for r := 0; r < n; r++ {
						s := 0.0
						for j := a.Off[r]; j < a.Off[r+1]; j++ {
							s += a.Val[j] * xc[a.Col[j]]
						}
						yc[r] = s
					}
					for r := 0; r < n; r++ {
						xc[r] = 0.5*yc[r] + xc[r]
					}
				}
			}
		})
		b.Run(fmt.Sprintf("k=%d/vertexmajor", k), func(b *testing.B) {
			x, y := blockFromCols(xs), blockFromCols(ys)
			alphas := make([]float64, k)
			for c := range alphas {
				alphas[c] = 0.5
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.MulVecBlockW(1, x, y)
				AxpyBlockW(1, x, alphas, y, x)
			}
		})
	}
}
