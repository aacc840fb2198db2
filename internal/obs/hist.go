// Package obs is the telemetry layer: log-bucketed latency histograms with
// lock-free sharded atomic recording, fixed-slot per-solve stage traces, a
// hand-rolled Prometheus text exposition writer, and the HTTP request
// pipeline (request ids, route/status counts, request logs, the error
// envelope) that the service and the cluster router share. Everything is
// stdlib-only, and the histograms and traces are allocation-free on the
// record path, so the solver's zero-alloc steady-state apply path can carry
// stage timers and the serving layer can observe every solve without
// perturbing either arithmetic (telemetry never touches data values) or the
// allocation wall.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBits sets the sub-bucket resolution: 1<<subBits sub-buckets per
	// power of two, so bucket boundaries are at most 2^(1/4)·~1.25× apart —
	// quantile estimates are within ~25% of the true value by construction.
	subBits  = 2
	subCount = 1 << subBits
	// numBuckets covers the full non-negative int64 nanosecond range:
	// values 0..subCount-1 get unit buckets, then subCount sub-buckets per
	// remaining octave.
	numBuckets = subCount + (63-subBits)*subCount
	// numShards spreads concurrent recording across independent counter
	// arrays (merged only at scrape time). The shard is picked by hashing
	// the recorded value itself — no shared round-robin state, so two
	// concurrent Observe calls rarely touch the same cache lines.
	numShards = 8
)

// shard is one independently updated counter set.
type shard struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// Histogram is a log-bucketed histogram of non-negative int64 samples
// (latencies in nanoseconds, by convention). The zero value is ready to use.
// Observe is lock-free and allocation-free; Snapshot merges the shards into
// a consistent-enough view for exposition and quantile estimation.
type Histogram struct {
	shards [numShards]shard
	max    atomic.Int64
	// minPlus1 stores min+1 so the zero value means "no samples yet"
	// (a recorded 0 is then stored as 1).
	minPlus1 atomic.Int64
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // floor(log2 v), >= subBits
	sub := int(v>>(uint(exp)-subBits)) & (subCount - 1)
	return ((exp - subBits + 1) << subBits) | sub
}

// BucketLower returns the inclusive lower bound of bucket i.
func BucketLower(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	e := i >> subBits // exp - subBits + 1
	s := i & (subCount - 1)
	return int64(subCount+s) << uint(e-1)
}

// BucketUpper returns the exclusive upper bound of bucket i.
func BucketUpper(i int) int64 {
	if i+1 >= numBuckets {
		return math.MaxInt64
	}
	return BucketLower(i + 1)
}

// shardOf hashes the sample value to a shard. Multiplying by a 64-bit odd
// constant (Fibonacci hashing) spreads consecutive nanosecond timestamps
// across shards without any shared state.
func shardOf(v int64) int {
	return int((uint64(v) * 0x9E3779B97F4A7C15) >> (64 - 3))
}

// Observe records one sample. Negative samples clamp to zero (a latency
// measured across a clock step). Safe for any number of concurrent callers;
// performs zero heap allocations.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	sh := &h.shards[shardOf(v)]
	sh.count.Add(1)
	sh.sum.Add(v)
	sh.buckets[bucketIndex(v)].Add(1)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.minPlus1.Load()
		if (old != 0 && v+1 >= old) || h.minPlus1.CompareAndSwap(old, v+1) {
			break
		}
	}
}

// ObserveSince records the elapsed time since t0 in nanoseconds.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Nanoseconds()) }

// Snapshot is a merged, point-in-time view of a Histogram.
type Snapshot struct {
	Count   int64
	Sum     int64
	Min     int64 // 0 when Count == 0
	Max     int64
	Buckets [numBuckets]int64
}

// Snapshot merges the shards. Concurrent Observe calls may or may not be
// included — each sample is internally consistent in Count/Sum/Buckets up to
// the usual scrape-time skew of one in-flight update.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.shards {
		sh := &h.shards[i]
		s.Count += sh.count.Load()
		s.Sum += sh.sum.Load()
		for b := range sh.buckets {
			if c := sh.buckets[b].Load(); c != 0 {
				s.Buckets[b] += c
			}
		}
	}
	s.Max = h.max.Load()
	if mp := h.minPlus1.Load(); mp > 0 {
		s.Min = mp - 1
	}
	return s
}

// Quantile estimates the q-th quantile (0 < q <= 1) in sample units by
// linear interpolation inside the containing log bucket, clamped to the
// observed min/max. Returns 0 when the snapshot is empty.
func (s *Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < numBuckets; i++ {
		c := s.Buckets[i]
		if c == 0 {
			continue
		}
		cum += c
		if cum < target {
			continue
		}
		lo, hi := BucketLower(i), BucketUpper(i)
		if hi > s.Max+1 {
			hi = s.Max + 1
		}
		if lo < s.Min {
			lo = s.Min
		}
		frac := float64(target-(cum-c)) / float64(c)
		v := lo + int64(frac*float64(hi-lo))
		if v > s.Max {
			v = s.Max
		}
		if v < s.Min {
			v = s.Min
		}
		return v
	}
	return s.Max
}

// Mean returns the mean sample, 0 when empty.
func (s *Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// PromBoundsSeconds are the fixed latency bucket boundaries (seconds) used
// for Prometheus exposition of nanosecond histograms: a 1-2.5-5 ladder from
// 100µs to 10s. Internal recording keeps finer (quarter-octave) resolution
// for quantiles; exposition collapses onto this fixed ladder so the series
// boundaries never change between scrapes. A sample whose internal bucket
// straddles a boundary is attributed to the next bucket up (a conservative
// overestimate of at most one quarter-octave).
var PromBoundsSeconds = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// CumulativeNS returns, for each bound (in nanoseconds), the number of
// samples whose internal bucket lies entirely at or below it. The final
// +Inf bucket is Count.
func (s *Snapshot) CumulativeNS(boundsNS []int64) []int64 {
	out := make([]int64, len(boundsNS))
	for i := 0; i < numBuckets; i++ {
		c := s.Buckets[i]
		if c == 0 {
			continue
		}
		upper := BucketUpper(i) - 1 // largest value the bucket can hold
		for bi, bound := range boundsNS {
			if upper <= bound {
				out[bi] += c
				break
			}
		}
	}
	// Make cumulative.
	for bi := 1; bi < len(out); bi++ {
		out[bi] += out[bi-1]
	}
	return out
}
