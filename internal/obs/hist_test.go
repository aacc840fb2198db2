package obs

import (
	"math"
	"sync"
	"testing"
)

// Bucket boundaries: every bucket is [BucketLower(i), BucketUpper(i)), the
// sequence tiles [0, MaxInt64] monotonically, and bucketIndex agrees with
// the bounds at and on either side of every boundary.
func TestBucketBoundaries(t *testing.T) {
	if BucketLower(0) != 0 {
		t.Fatalf("BucketLower(0) = %d, want 0", BucketLower(0))
	}
	for i := 0; i < numBuckets-1; i++ {
		lo, hi := BucketLower(i), BucketUpper(i)
		if hi <= lo {
			t.Fatalf("bucket %d: empty range [%d, %d)", i, lo, hi)
		}
		if got := BucketLower(i + 1); got != hi {
			t.Fatalf("bucket %d upper %d != bucket %d lower %d", i, hi, i+1, got)
		}
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(%d) = %d, want %d (lower bound)", lo, got, i)
		}
		if got := bucketIndex(hi - 1); got != i {
			t.Fatalf("bucketIndex(%d) = %d, want %d (last value)", hi-1, got, i)
		}
		if got := bucketIndex(hi); got != i+1 {
			t.Fatalf("bucketIndex(%d) = %d, want %d (next bucket)", hi, got, i+1)
		}
	}
	if got := bucketIndex(math.MaxInt64); got != numBuckets-1 {
		t.Fatalf("bucketIndex(MaxInt64) = %d, want %d", got, numBuckets-1)
	}
}

func TestObserveCountsAndExtremes(t *testing.T) {
	var h Histogram
	samples := []int64{0, 1, 3, 4, 5, 100, 1_000, 1_000_000, 123_456_789, -7}
	var wantSum int64
	for _, v := range samples {
		h.Observe(v)
		if v < 0 {
			v = 0
		}
		wantSum += v
	}
	s := h.Snapshot()
	if s.Count != int64(len(samples)) {
		t.Fatalf("count %d, want %d", s.Count, len(samples))
	}
	if s.Sum != wantSum {
		t.Fatalf("sum %d, want %d", s.Sum, wantSum)
	}
	if s.Min != 0 || s.Max != 123_456_789 {
		t.Fatalf("min/max = %d/%d, want 0/123456789", s.Min, s.Max)
	}
	var bucketed int64
	for _, c := range s.Buckets {
		bucketed += c
	}
	if bucketed != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketed, s.Count)
	}
	// Each sample landed in the bucket whose range contains it.
	for _, v := range samples {
		if v < 0 {
			v = 0
		}
		i := bucketIndex(v)
		if s.Buckets[i] == 0 {
			t.Fatalf("sample %d: bucket %d [%d,%d) empty", v, i, BucketLower(i), BucketUpper(i))
		}
	}
}

// Concurrent recording across shards must lose nothing on merge.
func TestConcurrentRecordMerge(t *testing.T) {
	var h Histogram
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(int64(g*perG+i) * 37)
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if want := int64(goroutines * perG); s.Count != want {
		t.Fatalf("count %d, want %d", s.Count, want)
	}
	n := int64(goroutines * perG)
	if want := 37 * n * (n - 1) / 2; s.Sum != want {
		t.Fatalf("sum %d, want %d", s.Sum, want)
	}
	if s.Max != 37*(n-1) || s.Min != 0 {
		t.Fatalf("min/max = %d/%d, want 0/%d", s.Min, s.Max, 37*(n-1))
	}
}

// Quantiles of a uniform sample must land within the containing bucket's
// relative error (one quarter-octave, ~25%).
func TestQuantileEstimates(t *testing.T) {
	var h Histogram
	const n = 100_000
	for i := 1; i <= n; i++ {
		h.Observe(int64(i))
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		got := float64(s.Quantile(q))
		want := q * n
		if rel := math.Abs(got-want) / want; rel > 0.26 {
			t.Fatalf("q%.2f = %.0f, want ~%.0f (rel err %.3f > 0.26)", q, got, want, rel)
		}
	}
	if got := s.Quantile(1); got != s.Max {
		t.Fatalf("q1 = %d, want max %d", got, s.Max)
	}
	var empty Snapshot
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty snapshot quantile must be 0")
	}
}

// A single-valued histogram must report that value at every quantile.
func TestQuantileSingleValue(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(12_345)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 12_345 {
			t.Fatalf("q%g = %d, want 12345", q, got)
		}
	}
}

// The record path must be allocation-free: it is called from inside the
// solver's zero-alloc apply path accounting.
func TestObserveZeroAllocs(t *testing.T) {
	var h Histogram
	allocs := testing.AllocsPerRun(100, func() {
		h.Observe(98_765)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocated %.1f objects/op, want 0", allocs)
	}
}

// CumulativeNS: counts are cumulative over the bound ladder and bounded by
// Count, with straddling buckets attributed upward (conservative).
func TestCumulative(t *testing.T) {
	var h Histogram
	h.Observe(50_000)         // 50µs: internal bucket well under 100µs
	h.Observe(150_000)        // 150µs: ≤ 250µs bound
	h.Observe(2_000_000)      // 2ms: ≤ 2.5ms bound
	h.Observe(30_000_000_000) // 30s: beyond the ladder → only +Inf
	s := h.Snapshot()
	boundsNS := make([]int64, len(PromBoundsSeconds))
	for i, b := range PromBoundsSeconds {
		boundsNS[i] = int64(b * 1e9)
	}
	cum := s.CumulativeNS(boundsNS)
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative counts decreased at bound %d: %v", i, cum)
		}
	}
	if last := cum[len(cum)-1]; last != 3 {
		t.Fatalf("ladder total %d, want 3 (the 30s sample is +Inf-only)", last)
	}
	if cum[0] != 1 { // only the 50µs sample fits ≤ 100µs
		t.Fatalf("first bound count %d, want 1 (%v)", cum[0], cum)
	}
}
