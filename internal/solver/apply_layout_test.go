package solver

import (
	"fmt"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/matrix"
	"parlap/internal/obs"
)

// The allocation walls of alloc_test.go, re-run on the new apply-path
// variants: float32 value storage and the Cuthill–McKee layout route through
// different kernels (f32 row loops, permuted sweeps with gather/scatter via
// the pooled permNat/permZ scratch), and each must hold the same steady-state
// zero-allocation guarantee as the natural f64 path.

func applyVariants() []precLayoutCfg {
	return []precLayoutCfg{
		{PrecisionF32, false},
		{PrecisionF64, true},
		{PrecisionF32, true},
	}
}

func TestPrecondApplyZeroAllocsVariants(t *testing.T) {
	for _, cfg := range applyVariants() {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			g := gen.Grid2D(48, 48)
			p := deepChainParams(g)
			p.Precision = cfg.prec
			p.ReorderLevels = cfg.reorder
			s, err := NewWithOptions(g, p, Options{Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			c := s.Chain
			if cfg.prec == PrecisionF32 && c.F32Levels() == 0 {
				t.Fatal("gate kept no f32 level; the wall would test the f64 path")
			}
			if cfg.reorder && c.ReorderedLevels() == 0 {
				t.Fatal("no level reordered; the wall would test the natural path")
			}
			r := randRHS(g.N, 7)
			ws := newWorkspace(c, 1)
			c.applyHTop(1, r, ws)
			allocs := testing.AllocsPerRun(20, func() {
				c.applyHTop(1, r, ws)
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s application allocated %.1f objects/op, want 0", cfg, allocs)
			}
		})
	}
}

func TestPrecondApplyBlockZeroAllocsVariants(t *testing.T) {
	for _, cfg := range applyVariants() {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			g := gen.Grid2D(48, 48)
			p := deepChainParams(g)
			p.Precision = cfg.prec
			p.ReorderLevels = cfg.reorder
			s, err := NewWithOptions(g, p, Options{Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			c := s.Chain
			const k = 8
			var rs matrix.Block
			rs.Reshape(g.N, k)
			for j := 0; j < k; j++ {
				rs.SetCol(j, randRHS(g.N, int64(7+j)))
			}
			ws := newWorkspace(c, k)
			c.applyHTopBlock(1, &rs, ws)
			allocs := testing.AllocsPerRun(20, func() {
				c.applyHTopBlock(1, &rs, ws)
			})
			if allocs != 0 {
				t.Fatalf("steady-state %s block application allocated %.1f objects/op, want 0", cfg, allocs)
			}
		})
	}
}

func TestSolveBlockTracedZeroAllocsVariants(t *testing.T) {
	for _, cfg := range applyVariants() {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			g := gen.Grid2D(32, 32)
			p := deepChainParams(g)
			p.Precision = cfg.prec
			p.ReorderLevels = cfg.reorder
			s, err := NewWithOptions(g, p, Options{Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			const k = 4
			var rhs, out matrix.Block
			rhs.Reshape(g.N, k)
			for j := 0; j < k; j++ {
				rhs.SetCol(j, randRHS(g.N, int64(11+j)))
			}
			const eps = 1e-4
			opt := Options{Workers: 1}
			var tr obs.SolveTrace
			var sts []SolveStats
			sts = s.SolveBlockTraced(&rhs, &out, eps, opt, &tr, sts)
			allocs := testing.AllocsPerRun(10, func() {
				sts = s.SolveBlockTraced(&rhs, &out, eps, opt, &tr, sts)
			})
			if allocs != 0 && !raceDetectorEnabled {
				t.Fatalf("steady-state %s block solve allocated %.1f objects/op, want 0", cfg, allocs)
			}
			for j, st := range sts {
				if !st.Converged {
					t.Fatalf("lane %d did not converge: %+v", j, st)
				}
			}
		})
	}
}

// BenchmarkApplyLayout measures a full preconditioner application on
// grid2d:128x128 across the layout/precision matrix — the CI-visible record
// of what the compact CSR, the float32 values, and the Cuthill–McKee
// reordering each buy on the bandwidth-bound sweep. Sub-benchmarks cover
// workers 1 and 4 (the CI runner's core count).
func BenchmarkApplyLayout(b *testing.B) {
	g := gen.Grid2D(128, 128)
	cfgs := append([]precLayoutCfg{{PrecisionF64, false}}, applyVariants()...)
	for _, cfg := range cfgs {
		p := deepChainParams(g)
		p.Precision = cfg.prec
		p.ReorderLevels = cfg.reorder
		s, err := NewWithOptions(g, p, Options{Workers: 4}, nil)
		if err != nil {
			b.Fatal(err)
		}
		r := randRHS(g.N, 7)
		dst := make([]float64, g.N)
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers-%d", cfg, w), func(b *testing.B) {
				s.Chain.PrecondApplyIntoW(w, r, dst)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Chain.PrecondApplyIntoW(w, r, dst)
				}
			})
		}
	}
}
