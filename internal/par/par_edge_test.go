package par

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// workerSet is the worker-count grid every cross-worker test sweeps. 0 is
// the GOMAXPROCS default; the rest force explicit counts regardless of the
// machine (goroutines still interleave on one core, which is exactly what
// the -race runs need).
var workerSet = []int{0, 1, 2, 3, 4, 8}

// boundarySizes straddles the fixed reduction grain and the sequential
// threshold, where chunk-count logic has off-by-one hazards.
var boundarySizes = []int{0, 1, 2, SequentialThreshold - 1, SequentialThreshold,
	SequentialThreshold + 1, reduceGrain - 1, reduceGrain, reduceGrain + 1,
	2*reduceGrain - 1, 2 * reduceGrain, 2*reduceGrain + 1, 3*reduceGrain + 17}

func TestForWEdgeSizes(t *testing.T) {
	for _, w := range workerSet {
		for _, n := range boundarySizes {
			seen := make([]int32, n)
			var mu sync.Mutex
			ForW(w, n, func(i int) {
				mu.Lock()
				seen[i]++
				mu.Unlock()
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", w, n, i, c)
				}
			}
		}
	}
}

func TestSumFloat64WBitwiseAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range boundarySizes {
		xs := make([]float64, n)
		for i := range xs {
			// Values spread over magnitudes so summation order matters.
			xs[i] = rng.NormFloat64() * float64(int64(1)<<(uint(i)%40))
		}
		ref := SumFloat64W(1, n, func(i int) float64 { return xs[i] })
		for _, w := range workerSet {
			got := SumFloat64W(w, n, func(i int) float64 { return xs[i] })
			if got != ref {
				t.Fatalf("n=%d workers=%d: sum %v differs from workers=1 sum %v", n, w, got, ref)
			}
		}
	}
}

func TestReduceFloat64WMinMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 3*reduceGrain + 5
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	seqMin := xs[0]
	for _, v := range xs[1:] {
		if v < seqMin {
			seqMin = v
		}
	}
	minOp := func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
	for _, w := range workerSet {
		got := ReduceFloat64W(w, n, xs[0], func(i int) float64 { return xs[i] }, minOp)
		if got != seqMin {
			t.Fatalf("workers=%d: min = %v, want %v", w, got, seqMin)
		}
	}
}

func TestScanWEdgeSizesAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range boundarySizes {
		src := make([]int, n)
		for i := range src {
			src[i] = rng.Intn(9)
		}
		want := make([]int, n+1)
		for i := 0; i < n; i++ {
			want[i+1] = want[i] + src[i]
		}
		for _, w := range workerSet {
			out := ScanW(w, src)
			if len(out) != n+1 {
				t.Fatalf("workers=%d n=%d: len(out)=%d", w, n, len(out))
			}
			for i := range want {
				if out[i] != want[i] {
					t.Fatalf("workers=%d n=%d: out[%d]=%d want %d", w, n, i, out[i], want[i])
				}
			}
		}
	}
}

func TestFilterIndexWEdgeSizesAcrossWorkers(t *testing.T) {
	for _, n := range boundarySizes {
		for _, w := range workerSet {
			got := FilterIndexW(w, n, func(i int) bool { return i%5 == 2 })
			want := 0
			for i := 2; i < n; i += 5 {
				if want >= len(got) || got[want] != i {
					t.Fatalf("workers=%d n=%d: element %d wrong", w, n, want)
				}
				want++
			}
			if len(got) != want {
				t.Fatalf("workers=%d n=%d: len=%d want %d", w, n, len(got), want)
			}
		}
	}
}

// TestSortWAcrossWorkers: SortW is stable end to end — elements with
// equal keys keep their input order — so its output is the one stable order,
// whatever the worker count, on sizes straddling the insertion-run and leaf
// boundaries.
func TestSortWAcrossWorkers(t *testing.T) {
	type item struct{ key, pos int }
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 2, sortRun - 1, sortRun, sortRun + 1, 5*sortRun + 3,
		sortGrain - 1, sortGrain, sortGrain + 1, 2*sortGrain + 3, 5*sortGrain + 11} {
		base := make([]item, n)
		for i := range base {
			base[i] = item{rng.Intn(50), i} // many duplicate keys
		}
		ref := append([]item(nil), base...)
		slices.SortStableFunc(ref, func(a, b item) int { return a.key - b.key })
		for _, w := range append([]int{1}, workerSet...) {
			xs := append([]item(nil), base...)
			SortW(w, xs, func(a, b item) bool { return a.key < b.key })
			for i := range xs {
				if xs[i] != ref[i] {
					t.Fatalf("n=%d workers=%d: %v at %d, stable order has %v", n, w, xs[i], i, ref[i])
				}
			}
		}
	}
}

// --- panic propagation ---

func mustPanic(t *testing.T, wantVal any, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic, got none")
		}
		if wantVal != nil && r != wantVal {
			t.Fatalf("panic value = %v, want %v", r, wantVal)
		}
	}()
	fn()
}

func TestForWPanicPropagatesParallel(t *testing.T) {
	n := 4 * SequentialThreshold
	for _, w := range []int{1, 2, 8} {
		mustPanic(t, "boom", func() {
			ForW(w, n, func(i int) {
				if i == n/2 {
					panic("boom")
				}
			})
		})
	}
}

func TestReducePanicPropagates(t *testing.T) {
	n := 3 * reduceGrain
	mustPanic(t, "reduce-boom", func() {
		SumFloat64W(4, n, func(i int) float64 {
			if i == n-1 {
				panic("reduce-boom")
			}
			return 1
		})
	})
}

func TestScanUsableAfterPanic(t *testing.T) {
	// A panicked parallel call must not wedge the primitives for later use.
	n := 3 * reduceGrain
	func() {
		defer func() { recover() }()
		ForW(4, n, func(i int) { panic("first") })
	}()
	src := make([]int, n)
	for i := range src {
		src[i] = 1
	}
	out := ScanW(4, src)
	if out[n] != n {
		t.Fatalf("total = %d, want %d", out[n], n)
	}
}

// --- race stress (meaningful under go test -race) ---

func TestConcurrentPrimitivesStress(t *testing.T) {
	n := 4 * reduceGrain
	src := make([]int, n)
	xs := make([]float64, n)
	for i := range src {
		src[i] = i & 15
		xs[i] = float64(i%97) * 0.5
	}
	wantSum := SumFloat64W(1, n, func(i int) float64 { return xs[i] })
	wantScan := ScanW(1, src)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				dst := make([]float64, n)
				ForChunkedW(2+g%3, n, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						dst[i] = 2 * xs[i]
					}
				})
				if s := SumFloat64W(1+g%4, n, func(i int) float64 { return xs[i] }); s != wantSum {
					t.Errorf("goroutine %d: sum %v != %v", g, s, wantSum)
					return
				}
				out := ScanW(1+g%4, src)
				if out[n] != wantScan[n] {
					t.Errorf("goroutine %d: scan total %d != %d", g, out[n], wantScan[n])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
