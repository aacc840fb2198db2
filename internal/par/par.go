// Package par provides the parallel primitives used throughout parlap:
// parallel for-loops, reductions, prefix sums (scans) and chunked map
// operations.
//
// Every primitive (ForW, SumFloat64W, ...) takes an explicit worker count as
// its first argument — 0 means GOMAXPROCS, 1 forces sequential execution.
// The solver threads its Options.Workers knob through it, which is what
// makes parallel/sequential equivalence testable.
//
// All primitives are deterministic with respect to their results: reductions
// and scans fold fixed-size chunks (reduceGrain elements) in chunk order, so
// the combining tree shape depends only on n — never on the worker count or
// on goroutine scheduling. For exactly associative operators (integer add,
// min/max) the result equals the sequential fold; for float64 addition the
// result is bitwise identical across worker counts, including workers=1.
//
// A panic raised inside a worker body is captured and re-raised on the
// calling goroutine once all workers have stopped, so callers can recover
// from worker panics exactly as they would from a sequential loop.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// SequentialThreshold is the input size below which the primitives run
// sequentially. Chosen so that goroutine spawn cost (~1µs) stays well under
// the per-element work it amortizes.
const SequentialThreshold = 2048

// reduceGrain is the fixed chunk size used by reductions and scans. The
// chunk decomposition depends only on n, which pins the combining tree shape
// and makes results reproducible across worker counts.
const reduceGrain = 2048

// ReduceGrain exports the fixed reduction chunk size. Callers that implement
// an allocation-free sequential reduction (a hot kernel's workers==1 fast
// path) must fold chunks of exactly this size in chunk order to stay bitwise
// identical to ReduceFloat64W's combining tree.
const ReduceGrain = reduceGrain

// Workers returns the number of workers parallel primitives use by default.
func Workers() int { return runtime.GOMAXPROCS(0) }

// Resolve maps the workers knob to an actual worker count: 0 (or negative)
// means GOMAXPROCS, anything else is taken literally.
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Sequential reports whether the workers knob resolves to one worker — the
// condition under which hot kernels take their inline (closure-free,
// allocation-free) fast paths. The fast paths are bitwise identical to the
// parallel schedules, so dispatching on the resolved count is safe.
func Sequential(workers int) bool { return Resolve(workers) == 1 }

// runTasks executes task(c) for every c in [0, numTasks) on up to p
// goroutines, pulling task indices from a shared counter for load balance.
// Task-to-index assignment is fixed, so any per-task output slot is
// deterministic regardless of which worker runs it. The first panic raised
// by a task is re-raised on the caller after all workers have stopped.
func runTasks(p, numTasks int, task func(c int)) {
	if numTasks <= 0 {
		return
	}
	if p > numTasks {
		p = numTasks
	}
	if p <= 1 {
		for c := 0; c < numTasks; c++ {
			task(c)
		}
		return
	}
	var next atomic.Int64
	var panicked atomic.Bool
	var panicVal any
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if panicked.CompareAndSwap(false, true) {
						panicVal = r
					}
				}
			}()
			for {
				c := int(next.Add(1)) - 1
				if c >= numTasks || panicked.Load() {
					return
				}
				task(c)
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
}

// grainChunks returns the number of fixed-grain chunks covering [0, n).
func grainChunks(n int) int { return (n + reduceGrain - 1) / reduceGrain }

// grainBounds returns chunk c's index range.
func grainBounds(c, n int) (lo, hi int) {
	lo = c * reduceGrain
	hi = lo + reduceGrain
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ForW runs body(i) for every i in [0, n). body must be safe to call
// concurrently for distinct i.
func ForW(workers, n int, body func(i int)) {
	ForChunkedW(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunkedW splits [0, n) into contiguous chunks and runs body(lo, hi) on
// each chunk in parallel. It is the preferred form when the body has
// per-chunk setup cost (e.g. a local buffer).
func ForChunkedW(workers, n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := Resolve(workers)
	if n < SequentialThreshold || p == 1 {
		body(0, n)
		return
	}
	// Use more chunks than workers for load balance on skewed bodies.
	chunks := p * 4
	if chunks > n {
		chunks = n
	}
	chunkSize := (n + chunks - 1) / chunks
	numChunks := (n + chunkSize - 1) / chunkSize
	runTasks(p, numChunks, func(c int) {
		lo := c * chunkSize
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		body(lo, hi)
	})
}

// TasksW runs task(c) for every c in [0, numTasks) on up to workers
// goroutines (0 = GOMAXPROCS, 1 = sequential), pulling task indices from a
// shared counter for load balance. Unlike ForW — whose sequential cutoff
// treats n as the element count — the task count here IS the parallel
// grain: use it when tasks are few but individually large (per-chunk BFS
// expansion, chunked scatter with per-task locals). Worker panics propagate
// to the caller like every other primitive.
func TasksW(workers, numTasks int, task func(c int)) {
	runTasks(Resolve(workers), numTasks, task)
}

// DoW runs the given functions concurrently and waits for all of them.
func DoW(workers int, fns ...func()) {
	if len(fns) == 0 {
		return
	}
	if len(fns) == 1 {
		fns[0]()
		return
	}
	runTasks(Resolve(workers), len(fns), func(c int) { fns[c]() })
}

// ReduceFloat64W computes the reduction of f(i) over [0, n) with the
// associative combiner op and identity element id, on the given number of
// workers. Chunks of reduceGrain elements are folded left-to-right from id
// and the per-chunk partials are combined in chunk order, so the result is
// bitwise identical for every worker count (the tree shape depends only on
// n).
func ReduceFloat64W(workers, n int, id float64, f func(i int) float64, op func(a, b float64) float64) float64 {
	if n <= 0 {
		return id
	}
	numChunks := grainChunks(n)
	fold := func(lo, hi int) float64 {
		acc := id
		for i := lo; i < hi; i++ {
			acc = op(acc, f(i))
		}
		return acc
	}
	if numChunks == 1 {
		return fold(0, n)
	}
	partial := make([]float64, numChunks)
	runTasks(Resolve(workers), numChunks, func(c int) {
		lo, hi := grainBounds(c, n)
		partial[c] = fold(lo, hi)
	})
	acc := partial[0]
	for _, v := range partial[1:] {
		acc = op(acc, v)
	}
	return acc
}

// SumFloat64W returns the sum of f(i) over [0, n).
func SumFloat64W(workers, n int, f func(i int) float64) float64 {
	return ReduceFloat64W(workers, n, 0, f, func(a, b float64) float64 { return a + b })
}

// ReduceIntW computes the reduction of f(i) over [0, n) with combiner op,
// folding fixed-grain chunks in chunk order (see ReduceFloat64W).
func ReduceIntW(workers, n int, id int, f func(i int) int, op func(a, b int) int) int {
	if n <= 0 {
		return id
	}
	numChunks := grainChunks(n)
	fold := func(lo, hi int) int {
		acc := id
		for i := lo; i < hi; i++ {
			acc = op(acc, f(i))
		}
		return acc
	}
	if numChunks == 1 {
		return fold(0, n)
	}
	partial := make([]int, numChunks)
	runTasks(Resolve(workers), numChunks, func(c int) {
		lo, hi := grainBounds(c, n)
		partial[c] = fold(lo, hi)
	})
	acc := partial[0]
	for _, v := range partial[1:] {
		acc = op(acc, v)
	}
	return acc
}

// SumIntW returns the sum of f(i) over [0, n).
func SumIntW(workers, n int, f func(i int) int) int {
	return ReduceIntW(workers, n, 0, f, func(a, b int) int { return a + b })
}

// ScanW computes the exclusive prefix sum of src into a new slice of length
// len(src)+1: out[0]=0, out[i+1]=out[i]+src[i]. The final element is the
// total. This is the paper's plus-scan; it runs in O(n) work and two-pass
// O(n/p + p) depth.
func ScanW(workers int, src []int) []int {
	n := len(src)
	out := make([]int, n+1)
	if n == 0 {
		return out
	}
	numChunks := grainChunks(n)
	if numChunks == 1 {
		acc := 0
		for i, v := range src {
			out[i] = acc
			acc += v
		}
		out[n] = acc
		return out
	}
	p := Resolve(workers)
	sums := make([]int, numChunks)
	// Pass 1: per-chunk totals.
	runTasks(p, numChunks, func(c int) {
		lo, hi := grainBounds(c, n)
		s := 0
		for i := lo; i < hi; i++ {
			s += src[i]
		}
		sums[c] = s
	})
	// Scan chunk totals sequentially (numChunks ≪ n).
	acc := 0
	for c := 0; c < numChunks; c++ {
		s := sums[c]
		sums[c] = acc
		acc += s
	}
	out[n] = acc
	// Pass 2: per-chunk local scans offset by the chunk's base.
	runTasks(p, numChunks, func(c int) {
		lo, hi := grainBounds(c, n)
		a := sums[c]
		for i := lo; i < hi; i++ {
			out[i] = a
			a += src[i]
		}
	})
	return out
}

// FilterIndexW returns, in increasing order, all i in [0, n) with keep(i).
// It uses a parallel count + prefix-sum + scatter, the standard PRAM pack.
func FilterIndexW(workers, n int, keep func(i int) bool) []int {
	if n <= 0 {
		return nil
	}
	numChunks := grainChunks(n)
	if numChunks == 1 {
		var out []int
		for i := 0; i < n; i++ {
			if keep(i) {
				out = append(out, i)
			}
		}
		return out
	}
	p := Resolve(workers)
	counts := make([]int, numChunks)
	runTasks(p, numChunks, func(c int) {
		lo, hi := grainBounds(c, n)
		cnt := 0
		for i := lo; i < hi; i++ {
			if keep(i) {
				cnt++
			}
		}
		counts[c] = cnt
	})
	offsets := make([]int, numChunks+1)
	for c := 0; c < numChunks; c++ {
		offsets[c+1] = offsets[c] + counts[c]
	}
	out := make([]int, offsets[numChunks])
	runTasks(p, numChunks, func(c int) {
		lo, hi := grainBounds(c, n)
		at := offsets[c]
		for i := lo; i < hi; i++ {
			if keep(i) {
				out[at] = i
				at++
			}
		}
	})
	return out
}

// HalfEdgePackW computes the CSR placement of m undirected edges over n
// vertices without the sequential cursor scatter: per-chunk degree counts,
// a prefix-sum over vertices, and per-(chunk, vertex) starting offsets let
// every chunk scatter its own edges into disjoint slots. It returns off
// (length n+1, the CSR row offsets) and pos (length 2m): pos[2i] is the slot
// of edge i's U-side half-edge and pos[2i+1] its V-side slot.
//
// The layout is identical to the classic sequential scatter (edges processed
// in index order, appending at a per-vertex cursor) for every worker count:
// chunk c's edges land after the half-edges of chunks < c at the same vertex,
// and in edge order within the chunk. Self-loops (u == v) occupy two
// consecutive slots at their vertex, as the sequential cursor would place
// them.
func HalfEdgePackW(workers, n, m int, ends func(i int) (u, v int)) (off, pos []int) {
	pos = make([]int, 2*m)
	deg := make([]int, n)
	p := Resolve(workers)
	if p == 1 || m < SequentialThreshold {
		for i := 0; i < m; i++ {
			u, v := ends(i)
			deg[u]++
			deg[v]++
		}
		off = ScanW(1, deg)
		cursor := deg // reuse: overwrite with the running cursor
		copy(cursor, off[:n])
		for i := 0; i < m; i++ {
			u, v := ends(i)
			pos[2*i] = cursor[u]
			cursor[u]++
			pos[2*i+1] = cursor[v]
			cursor[v]++
		}
		return off, pos
	}
	chunks := p * 4
	if chunks > m {
		chunks = m
	}
	chunk := (m + chunks - 1) / chunks
	numChunks := (m + chunk - 1) / chunk
	local := make([][]int, numChunks)
	runTasks(p, numChunks, func(c int) {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > m {
			hi = m
		}
		l := make([]int, n)
		for i := lo; i < hi; i++ {
			u, v := ends(i)
			l[u]++
			l[v]++
		}
		local[c] = l
	})
	ForW(workers, n, func(v int) {
		d := 0
		for c := 0; c < numChunks; c++ {
			d += local[c][v]
		}
		deg[v] = d
	})
	off = ScanW(workers, deg)
	// Turn each chunk's count into its starting cursor at that vertex:
	// off[v] plus the half-edges earlier chunks place there.
	ForW(workers, n, func(v int) {
		run := off[v]
		for c := 0; c < numChunks; c++ {
			t := local[c][v]
			local[c][v] = run
			run += t
		}
	})
	runTasks(p, numChunks, func(c int) {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > m {
			hi = m
		}
		cursor := local[c]
		for i := lo; i < hi; i++ {
			u, v := ends(i)
			pos[2*i] = cursor[u]
			cursor[u]++
			pos[2*i+1] = cursor[v]
			cursor[v]++
		}
	})
	return off, pos
}

// PackByKeyW groups the indices [0, n) by key(i) ∈ [0, numKeys) with a
// stable parallel counting sort: per-chunk key counts, a prefix sum over
// keys, and per-(chunk, key) starting offsets let every chunk scatter its
// own indices into disjoint slots — the same offset-precomputed pack as
// HalfEdgePackW. It returns off (length numKeys+1) and order (length n):
// order[off[k]:off[k+1]] holds, in increasing order, exactly the indices i
// with key(i) == k. The layout matches the sequential stable counting sort
// for every worker count.
func PackByKeyW(workers, n, numKeys int, key func(i int) int) (off, order []int) {
	order = make([]int, n)
	cnt := make([]int, numKeys)
	p := Resolve(workers)
	if p == 1 || n < SequentialThreshold {
		for i := 0; i < n; i++ {
			cnt[key(i)]++
		}
		off = ScanW(1, cnt)
		cursor := cnt // reuse: overwrite with the running cursor
		copy(cursor, off[:numKeys])
		for i := 0; i < n; i++ {
			k := key(i)
			order[cursor[k]] = i
			cursor[k]++
		}
		return off, order
	}
	chunks := p * 4
	if chunks > n {
		chunks = n
	}
	chunk := (n + chunks - 1) / chunks
	numChunks := (n + chunk - 1) / chunk
	local := make([][]int, numChunks)
	runTasks(p, numChunks, func(c int) {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > n {
			hi = n
		}
		l := make([]int, numKeys)
		for i := lo; i < hi; i++ {
			l[key(i)]++
		}
		local[c] = l
	})
	ForW(workers, numKeys, func(k int) {
		d := 0
		for c := 0; c < numChunks; c++ {
			d += local[c][k]
		}
		cnt[k] = d
	})
	off = ScanW(workers, cnt)
	// Turn each chunk's count into its starting cursor at that key: off[k]
	// plus the indices earlier chunks place there.
	ForW(workers, numKeys, func(k int) {
		run := off[k]
		for c := 0; c < numChunks; c++ {
			t := local[c][k]
			local[c][k] = run
			run += t
		}
	})
	runTasks(p, numChunks, func(c int) {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > n {
			hi = n
		}
		cursor := local[c]
		for i := lo; i < hi; i++ {
			k := key(i)
			order[cursor[k]] = i
			cursor[k]++
		}
	})
	return off, order
}

// SortW stably sorts xs by the strict-weak order less: elements that compare
// equal keep their input order, so the result is the unique stable order and
// is identical for every worker count. It is a fixed-grain parallel merge
// sort over typed slices (no reflection): leaf chunks of sortGrain elements
// are sorted independently — insertion-sorted runs merged bottom-up through
// the shared buffer — then pairwise-merged over log(n/sortGrain) rounds with
// the independent merges of each round running in parallel. Every merge
// keeps the left run first on ties.
func SortW[T any](workers int, xs []T, less func(a, b T) bool) {
	m := len(xs)
	if m <= sortRun {
		insertionSort(xs, less)
		return
	}
	buf := make([]T, m)
	numChunks := (m + sortGrain - 1) / sortGrain
	// runTasks directly: the parallel grain here is the chunk count, which
	// is far below the element-count SequentialThreshold that ForW applies.
	p := Resolve(workers)
	runTasks(p, numChunks, func(c int) {
		lo := c * sortGrain
		hi := min(lo+sortGrain, m)
		sortLeaf(xs[lo:hi], buf[lo:hi], less)
	})
	src, dst := xs, buf
	for width := sortGrain; width < m; width *= 2 {
		numPairs := (m + 2*width - 1) / (2 * width)
		w := width
		s, d := src, dst
		runTasks(p, numPairs, func(pi int) {
			lo := pi * 2 * w
			mergeRuns(d, s, lo, min(lo+w, m), min(lo+2*w, m), less)
		})
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

// sortGrain is the leaf size of SortW's parallel merge sort; sortRun the
// length of the insertion-sorted runs each leaf starts from.
const (
	sortGrain = 4096
	sortRun   = 16
)

// sortLeaf stably sorts s using b (same length) as merge scratch.
func sortLeaf[T any](s, b []T, less func(a, b T) bool) {
	n := len(s)
	for lo := 0; lo < n; lo += sortRun {
		insertionSort(s[lo:min(lo+sortRun, n)], less)
	}
	src, dst := s, b
	for w := sortRun; w < n; w *= 2 {
		for lo := 0; lo < n; lo += 2 * w {
			mergeRuns(dst, src, lo, min(lo+w, n), min(lo+2*w, n), less)
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// insertionSort is the stable small-slice sort under SortW's leaves.
func insertionSort[T any](s []T, less func(a, b T) bool) {
	for i := 1; i < len(s); i++ {
		x := s[i]
		j := i
		for ; j > 0 && less(x, s[j-1]); j-- {
			s[j] = s[j-1]
		}
		s[j] = x
	}
}

// mergeRuns merges the sorted runs s[lo:mid] and s[mid:hi] into d[lo:hi],
// taking from the left run on ties (!less(right, left)): a stable merge.
func mergeRuns[T any](d, s []T, lo, mid, hi int, less func(a, b T) bool) {
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		if !less(s[j], s[i]) {
			d[k] = s[i]
			i++
		} else {
			d[k] = s[j]
			j++
		}
		k++
	}
	k += copy(d[k:hi], s[i:mid])
	copy(d[k:hi], s[j:hi])
}
