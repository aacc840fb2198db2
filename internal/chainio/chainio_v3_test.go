package chainio

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/solver"
)

// The suites first written for format v3. The v3 per-level payload (float32
// value flags, Cuthill–McKee permutations) left the format in v5; what these
// suites still guard is the rest of what a recursing chain carries: the
// encoded ChainParams and the calibrated schedule must come back exactly
// under non-default parameters, and a blob holding recursing levels must be
// rejected as cleanly as the bottom-only blob of TestCorruptionRejected.

func buildVariantSolver(t *testing.T, g *graph.Graph, tweak func(*solver.ChainParams), workers int) *solver.Solver {
	t.Helper()
	params := pinnedDepthParams(g)
	params.Seed = 42
	tweak(&params)
	s, err := solver.NewWithOptions(g, params, solver.Options{Workers: workers}, nil)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return s
}

func TestRoundTripBitwiseV3Variants(t *testing.T) {
	const eps = 1e-8
	variants := []struct {
		name  string
		tweak func(*solver.ChainParams)
	}{
		{"kappa-growth-1", func(p *solver.ChainParams) { p.KappaGrowth = 1 }},
		{"budget-lifted", func(p *solver.ChainParams) { p.BudgetLiftVertices = 1 }},
		{"min-cheb-8", func(p *solver.ChainParams) { p.MinChebIts = 8 }},
	}
	for _, tb := range testbedGraphs() {
		for _, v := range variants {
			t.Run(tb.name+"/"+v.name, func(t *testing.T) {
				orig := buildVariantSolver(t, tb.g, v.tweak, 0)
				id := graph.CanonicalID(tb.g)
				data, err := Encode(orig, id)
				if err != nil {
					t.Fatalf("encode: %v", err)
				}
				bs := randomRHS(tb.g.N, 0x5eed, 3)
				xRef, stRef := orig.Solve(bs[0], eps)
				xsRef, _ := orig.SolveBatch(bs, eps)
				for _, w := range []int{1, 2, 4} {
					restored, err := Decode(data, id, solver.Options{Workers: w})
					if err != nil {
						t.Fatalf("workers=%d: decode: %v", w, err)
					}
					// The restored chain must carry the same parameters and
					// calibration outcomes, not just solve identically.
					if !reflect.DeepEqual(restored.Chain.Params, orig.Chain.Params) {
						t.Fatalf("workers=%d: params differ: %+v vs %+v", w, restored.Chain.Params, orig.Chain.Params)
					}
					if so, sr := orig.Chain.Schedule(), restored.Chain.Schedule(); !reflect.DeepEqual(so, sr) {
						t.Fatalf("workers=%d: schedule differs: %+v vs %+v", w, sr, so)
					}
					x, st := restored.Solve(bs[0], eps)
					if st.Iterations != stRef.Iterations {
						t.Fatalf("workers=%d: %d iterations vs %d", w, st.Iterations, stRef.Iterations)
					}
					assertBitwiseEqual(t, fmt.Sprintf("workers=%d solve", w), xRef, x)
					xs, _ := restored.SolveBatch(bs, eps)
					for c := range xsRef {
						assertBitwiseEqual(t, fmt.Sprintf("workers=%d batch col %d", w, c), xsRef[c], xs[c])
					}
				}
			})
		}
	}
}

// TestCorruptionRejectedV3 re-runs the corruption sweep over a blob whose
// payload holds recursing levels (elimination logs, schedules, component
// indices): bit flips must trip the checksum, resealed flips must never
// panic, and truncations anywhere in the level payload must fail with
// ErrCorrupt.
func TestCorruptionRejectedV3(t *testing.T) {
	g := gen.Grid2D(20, 20)
	s := buildVariantSolver(t, g, func(*solver.ChainParams) {}, 1)
	if len(s.Chain.Levels) == 0 {
		t.Fatal("testbed blob holds no recursing level")
	}
	id := graph.CanonicalID(g)
	data, err := Encode(s, id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data, id, solver.Options{Workers: 1}); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
	decode := func(b []byte) error {
		_, err := Decode(b, id, solver.Options{Workers: 1})
		return err
	}

	t.Run("bit-flips", func(t *testing.T) {
		rng := rand.New(rand.NewSource(101))
		for trial := 0; trial < 200; trial++ {
			mut := append([]byte(nil), data...)
			pos := rng.Intn(len(mut))
			mut[pos] ^= 1 << rng.Intn(8)
			if err := decode(mut); err == nil {
				t.Fatalf("flip at byte %d accepted", pos)
			}
		}
	})

	t.Run("bit-flips-resealed", func(t *testing.T) {
		rng := rand.New(rand.NewSource(102))
		for trial := 0; trial < 300; trial++ {
			mut := append([]byte(nil), data...)
			pos := rng.Intn(len(mut) - trailerLen)
			mut[pos] ^= 1 << rng.Intn(8)
			reseal(mut)
			_ = decode(mut) // must not panic; error or not depends on the bit
		}
	})

	t.Run("truncations", func(t *testing.T) {
		rng := rand.New(rand.NewSource(103))
		cuts := []int{0, headerLen, len(data) / 2, len(data) - trailerLen, len(data) - 1}
		for trial := 0; trial < 20; trial++ {
			cuts = append(cuts, headerLen+rng.Intn(len(data)-headerLen))
		}
		for _, n := range cuts {
			if err := decode(data[:n]); err == nil {
				t.Fatalf("truncation to %d bytes accepted", n)
			} else if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("truncation to %d bytes: got %v, want ErrCorrupt", n, err)
			}
		}
	})
}
