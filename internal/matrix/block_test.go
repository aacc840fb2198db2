package matrix

import (
	"fmt"
	"math/rand"
	"testing"

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

var blockTestWidths = []int{1, 2, 5, 8}
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
		b := blockFromCols(xs)
		b.KeepLanes(keep)
		if b.K() != len(keep) {
			t.Fatalf("K = %d after KeepLanes(%v)", b.K(), keep)
		}
		for j, c := range keep {
			got := make([]float64, n)
			b.ColInto(j, got)
			requireBitwise(t, fmt.Sprintf("trial %d lane %d<-%d", trial, j, c), got, xs[c])
		}
	}
}

func TestMulVecBlockBitwise(t *testing.T) {
	a := randLap(700, 1)
	for _, k := range blockTestWidths {
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
	for _, k := range blockTestWidths {
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
				tmp := make([]float64, k)
				DotBlockIntoW(w, x, y, out, tmp)
				for c := 0; c < k; c++ {
					if want := DotW(w, xs[c], ys[c]); out[c] != want {
						t.Fatalf("dot n=%d k=%d w=%d col %d: %g vs %g", n, k, w, c, out[c], want)
					}
				}
				Norm2BlockIntoW(w, x, out, tmp)
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
			SubIntoBlockW(w, dst, x, y)
			for c := 0; c < k; c++ {
				want := make([]float64, n)
				SubIntoW(w, want, xs[c], ys[c])
				got := make([]float64, n)
				dst.ColInto(c, got)
				requireBitwise(t, fmt.Sprintf("sub k=%d w=%d col %d", k, w, c), got, want)
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
	n := 2*par.ReduceGrain + 31
	for _, numComp := range []int{1, 3} {
		comp := randomPartition(rng, n, numComp)
		ci := NewCompIndexW(0, comp, numComp)
		for _, k := range blockTestWidths {
			xs := randCols(n, k, int64(14+numComp))
			for _, w := range blockTestWorkers {
				x := blockFromCols(xs)
				scratch := make([]float64, 2*k)
				ProjectOutConstantMaskedBlockIdxW(w, x, ci, scratch)
				for c := 0; c < k; c++ {
					want := CopyVec(xs[c])
					ProjectOutConstantMaskedIdxW(w, want, ci)
					got := make([]float64, n)
					x.ColInto(c, got)
					requireBitwise(t, fmt.Sprintf("proj comps=%d k=%d w=%d col %d", numComp, k, w, c), got, want)
				}
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
		dots, norms, tmp := make([]float64, k), make([]float64, k), make([]float64, k)
		DotBlockIntoW(w, x, y, dots, tmp)
		Norm2BlockIntoW(w, x, norms, tmp)
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

// TestDotBatchIntoBitwise reuses one out/tmp pair across every call, the
// way the solver's per-iteration reductions do: stale partials left in tmp
// by a wider or longer call must never leak into the next one.
func TestDotBatchIntoBitwise(t *testing.T) {
	out, tmp := make([]float64, 8), make([]float64, 8)
	for _, n := range []int{1, par.ReduceGrain + 1, 3*par.ReduceGrain + 17} {
		for _, k := range blockTestWidths {
			xs, ys := randCols(n, k, 8), randCols(n, k, 9)
			x, y := blockFromCols(xs), blockFromCols(ys)
			for _, w := range blockTestWorkers {
				DotBlockIntoW(w, x, y, out[:k], tmp[:k])
				for c := 0; c < k; c++ {
					if want := DotW(w, xs[c], ys[c]); out[c] != want {
						t.Fatalf("dot n=%d k=%d w=%d col %d: %g vs %g", n, k, w, c, out[c], want)
					}
				}
				Norm2BlockIntoW(w, x, out[:k], tmp[:k])
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
	n, k := 4000, 3
	xs := randCols(n, k, 5)
	ys := randCols(n, k, 6)
	alphas := []float64{0.5, -1.25, 3.75}
	x, y := blockFromCols(xs), blockFromCols(ys)
	dst, diff := NewBlock(n, k), NewBlock(n, k)
	AxpyBlockW(0, dst, alphas, x, y)
	SubIntoBlockW(0, diff, x, y)
	got := make([]float64, n)
	for c := 0; c < k; c++ {
		ref := make([]float64, n)
		AxpyIntoW(1, ref, alphas[c], xs[c], ys[c])
		dst.ColInto(c, got)
		requireBitwise(t, "axpy", got, ref)
		SubIntoW(1, ref, xs[c], ys[c])
		diff.ColInto(c, got)
		requireBitwise(t, "sub", got, ref)
	}
}

// TestProjectBatchBitwise checks the block projection against the
// comp-array single-vector projection (no CompIndex on the reference side).
func TestProjectBatchBitwise(t *testing.T) {
	n, k := 6000, 3
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
		ProjectOutConstantMaskedBlockIdxW(tc.workers, x, NewCompIndexW(0, comp, tc.numComp), make([]float64, 2*k))
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
	n, numComp, cols := 7000, 6, 5
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
	ProjectOutConstantMaskedBlockIdxW(2, x, ci, make([]float64, 2*cols))
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
