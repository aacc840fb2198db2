package par

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 7, SequentialThreshold - 1, SequentialThreshold, 100000} {
		seen := make([]int32, n)
		ForW(0, n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForChunkedPartition(t *testing.T) {
	n := 50000
	seen := make([]int32, n)
	ForChunkedW(0, n, func(lo, hi int) {
		if lo < 0 || hi > n || lo > hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestDoRunsAll(t *testing.T) {
	var a, b, c int32
	DoW(0,
		func() { atomic.StoreInt32(&a, 1) },
		func() { atomic.StoreInt32(&b, 2) },
		func() { atomic.StoreInt32(&c, 3) },
	)
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("DoW did not run all functions: %d %d %d", a, b, c)
	}
}

func TestDoSingle(t *testing.T) {
	ran := false
	DoW(0, func() { ran = true })
	if !ran {
		t.Fatal("single DoW did not run")
	}
}

func TestSumInt(t *testing.T) {
	for _, w := range workerSet {
		for _, n := range []int{0, 1, 100, 10000, 3*reduceGrain + 17} {
			got := SumIntW(w, n, func(i int) int { return i })
			want := n * (n - 1) / 2
			if got != want {
				t.Fatalf("workers=%d: SumIntW(%d) = %d, want %d", w, n, got, want)
			}
		}
	}
}

func TestSumFloat64MatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 100000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	got := SumFloat64W(0, n, func(i int) float64 { return xs[i] })
	seq := 0.0
	for _, v := range xs {
		seq += v
	}
	if diff := got - seq; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("parallel sum %v differs from sequential %v", got, seq)
	}
}

func TestMaxInt(t *testing.T) {
	maxOp := func(a, b int) int {
		if a > b {
			return a
		}
		return b
	}
	xs := []int{3, 9, 2, 9, 1}
	got := ReduceIntW(0, len(xs), -1, func(i int) int { return xs[i] }, maxOp)
	if got != 9 {
		t.Fatalf("max = %d, want 9", got)
	}
	if got := ReduceIntW(0, 0, -5, nil, maxOp); got != -5 {
		t.Fatalf("max of nothing = %d, want -5", got)
	}
}

func TestPrefixSumIntSmall(t *testing.T) {
	src := []int{3, 1, 4, 1, 5}
	out := ScanW(0, src)
	want := []int{0, 3, 4, 8, 9, 14}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("prefix[%d] = %d, want %d", i, out[i], want[i])
		}
	}
}

func TestPrefixSumIntLargeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 100000
	src := make([]int, n)
	for i := range src {
		src[i] = rng.Intn(10)
	}
	out := ScanW(0, src)
	acc := 0
	for i := 0; i < n; i++ {
		if out[i] != acc {
			t.Fatalf("prefix[%d] = %d, want %d", i, out[i], acc)
		}
		acc += src[i]
	}
	if out[n] != acc {
		t.Fatalf("total = %d, want %d", out[n], acc)
	}
}

func TestPrefixSumProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		src := make([]int, len(raw))
		for i, v := range raw {
			src[i] = int(v)
		}
		out := ScanW(0, src)
		acc := 0
		for i := range src {
			if out[i] != acc {
				return false
			}
			acc += src[i]
		}
		return out[len(src)] == acc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFilterIndex(t *testing.T) {
	got := FilterIndexW(0, 10, func(i int) bool { return i%3 == 0 })
	want := []int{0, 3, 6, 9}
	if len(got) != len(want) {
		t.Fatalf("FilterIndexW = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FilterIndexW = %v, want %v", got, want)
		}
	}
}

func TestFilterIndexLargeSortedAndComplete(t *testing.T) {
	n := 100000
	got := FilterIndexW(0, n, func(i int) bool { return i%7 == 0 })
	want := 0
	for i := 0; i < n; i += 7 {
		if got[want] != i {
			t.Fatalf("element %d = %d, want %d", want, got[want], i)
		}
		want++
	}
	if len(got) != want {
		t.Fatalf("len = %d, want %d", len(got), want)
	}
}

func TestFilterIndexEmpty(t *testing.T) {
	if got := FilterIndexW(0, 0, nil); len(got) != 0 {
		t.Fatalf("FilterIndexW(n=0) = %v", got)
	}
	if got := FilterIndexW(0, 100000, func(int) bool { return false }); len(got) != 0 {
		t.Fatalf("all-false filter returned %d elements", len(got))
	}
}

func TestReduceIntDeterministic(t *testing.T) {
	n := 500000
	f := func(i int) int { return i % 17 }
	add := func(a, b int) int { return a + b }
	a := ReduceIntW(1, n, 0, f, add)
	for _, w := range workerSet {
		if b := ReduceIntW(w, n, 0, f, add); a != b {
			t.Fatalf("workers=%d: reduction %d differs from the sequential %d", w, b, a)
		}
	}
}

func BenchmarkParallelFor(b *testing.B) {
	n := 1 << 20
	dst := make([]float64, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ForW(0, n, func(j int) { dst[j] = float64(j) * 1.5 })
	}
}

func BenchmarkPrefixSum(b *testing.B) {
	n := 1 << 20
	src := make([]int, n)
	for i := range src {
		src[i] = i & 7
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ScanW(0, src)
	}
}

// halfEdgePackRef is the classic sequential cursor scatter HalfEdgePackW
// must reproduce for every worker count.
func halfEdgePackRef(n, m int, ends func(i int) (u, v int)) (off, pos []int) {
	deg := make([]int, n)
	for i := 0; i < m; i++ {
		u, v := ends(i)
		deg[u]++
		deg[v]++
	}
	off = make([]int, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + deg[v]
	}
	cursor := make([]int, n)
	copy(cursor, off[:n])
	pos = make([]int, 2*m)
	for i := 0; i < m; i++ {
		u, v := ends(i)
		pos[2*i] = cursor[u]
		cursor[u]++
		pos[2*i+1] = cursor[v]
		cursor[v]++
	}
	return off, pos
}

func TestHalfEdgePackMatchesSequentialScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct{ n, m int }{
		{0, 0}, {1, 0}, {5, 3}, {100, 257},
		{300, SequentialThreshold + 500}, {37, 20000},
	} {
		us := make([]int, tc.m)
		vs := make([]int, tc.m)
		for i := range us {
			us[i] = rng.Intn(tc.n)
			if i%11 == 0 {
				vs[i] = us[i] // self-loop: two slots at one vertex
			} else {
				vs[i] = rng.Intn(tc.n)
			}
		}
		ends := func(i int) (int, int) { return us[i], vs[i] }
		wantOff, wantPos := halfEdgePackRef(tc.n, tc.m, ends)
		for _, w := range []int{1, 0, 2, 4} {
			off, pos := HalfEdgePackW(w, tc.n, tc.m, ends)
			for i := range wantOff {
				if off[i] != wantOff[i] {
					t.Fatalf("n=%d m=%d workers=%d: off[%d] = %d, want %d", tc.n, tc.m, w, i, off[i], wantOff[i])
				}
			}
			for i := range wantPos {
				if pos[i] != wantPos[i] {
					t.Fatalf("n=%d m=%d workers=%d: pos[%d] = %d, want %d", tc.n, tc.m, w, i, pos[i], wantPos[i])
				}
			}
		}
	}
}
