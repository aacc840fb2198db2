package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"parlap/internal/gen"
)

func testServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, method, url string, req, resp any) int {
	t.Helper()
	var body bytes.Buffer
	if req != nil {
		if err := json.NewEncoder(&body).Encode(req); err != nil {
			t.Fatal(err)
		}
	}
	hr, err := http.NewRequest(method, url, &body)
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	r, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if resp != nil && r.StatusCode == http.StatusOK {
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			t.Fatal(err)
		}
	}
	// Read to EOF: the decoder returns as soon as the JSON value closes, but
	// the server only sends the terminating chunk after its handler wrapper
	// has returned — and that wrapper counts the request. Callers that
	// scrape /metrics next must not race it.
	_, _ = io.Copy(io.Discard, r.Body)
	return r.StatusCode
}

func meanFreeRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	mean := 0.0
	for i := range b {
		b[i] = rng.NormFloat64()
		mean += b[i]
	}
	mean /= float64(n)
	for i := range b {
		b[i] -= mean
	}
	return b
}

func TestRegisterBuildsOnceAndCountsHits(t *testing.T) {
	ts := testServer(t, Config{})
	var first, second RegisterResponse
	if code := doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "grid2d:16x16"}, &first); code != 200 {
		t.Fatalf("register: status %d", code)
	}
	if first.Cached {
		t.Fatal("first registration reported cached")
	}
	if code := doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "grid2d:16x16"}, &second); code != 200 {
		t.Fatalf("re-register: status %d", code)
	}
	if !second.Cached || second.ID != first.ID {
		t.Fatalf("second registration not served from cache: %+v vs %+v", second, first)
	}
	var st GraphStats
	if code := doJSON(t, "GET", fmt.Sprintf("%s/graphs/%s/stats", ts.URL, first.ID), nil, &st); code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	if st.CacheHits != 1 {
		t.Fatalf("stats report %d cache hits, want 1", st.CacheHits)
	}
}

// TestRegisterCanonicalHash: the same multigraph in different clothing —
// edge order permuted, endpoints flipped — must land on one cache entry.
func TestRegisterCanonicalHash(t *testing.T) {
	ts := testServer(t, Config{})
	var a, b RegisterResponse
	doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{EdgeList: "0 1 1\n1 2 2\n2 3 1.5"}, &a)
	doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{EdgeList: "3 2 1.5\n2 1 2\n1 0 1"}, &b)
	if a.ID != b.ID || !b.Cached {
		t.Fatalf("reordered/flipped edge list missed the cache: %+v vs %+v", a, b)
	}
}

func TestSolveSingleAndBatchBitwise(t *testing.T) {
	ts := testServer(t, Config{})
	var reg RegisterResponse
	doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "grid2d:16x16"}, &reg)
	solveURL := fmt.Sprintf("%s/graphs/%s/solve", ts.URL, reg.ID)

	const k = 3
	bs := make([][]float64, k)
	singles := make([][]float64, k)
	for c := range bs {
		bs[c] = meanFreeRHS(reg.N, int64(50+c))
		var resp SolveResponse
		if code := doJSON(t, "POST", solveURL, SolveRequest{B: bs[c], Eps: 1e-7}, &resp); code != 200 {
			t.Fatalf("solve %d: status %d", c, code)
		}
		if resp.Stats == nil || !resp.Stats.Converged {
			t.Fatalf("solve %d did not converge: %+v", c, resp.Stats)
		}
		if resp.Stats.Residual > 1e-6 {
			t.Fatalf("solve %d residual %g too large", c, resp.Stats.Residual)
		}
		singles[c] = resp.X
	}
	var batch SolveResponse
	if code := doJSON(t, "POST", solveURL, SolveRequest{Batch: bs, Eps: 1e-7}, &batch); code != 200 {
		t.Fatalf("batch: status %d", code)
	}
	if len(batch.Xs) != k {
		t.Fatalf("batch returned %d columns, want %d", len(batch.Xs), k)
	}
	for c := range batch.Xs {
		if len(batch.Xs[c]) != len(singles[c]) {
			t.Fatalf("column %d: length mismatch", c)
		}
		for i := range batch.Xs[c] {
			if batch.Xs[c][i] != singles[c][i] {
				t.Fatalf("column %d entry %d: batch %g != single %g", c, i, batch.Xs[c][i], singles[c][i])
			}
		}
	}
	var st GraphStats
	doJSON(t, "GET", fmt.Sprintf("%s/graphs/%s/stats", ts.URL, reg.ID), nil, &st)
	if st.Solves != k+1 || st.RHSServed != 2*k {
		t.Fatalf("stats solves=%d rhs=%d, want %d and %d", st.Solves, st.RHSServed, k+1, 2*k)
	}
}

// TestConcurrentHTTPSolves: many clients hammering one cached chain must
// produce exactly the answers sequential requests produce. Run under -race
// this is the serving-layer race check of the acceptance criteria.
func TestConcurrentHTTPSolves(t *testing.T) {
	ts := testServer(t, Config{MaxInflight: 4, Workers: 4})
	var reg RegisterResponse
	doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "grid2d:14x14"}, &reg)
	solveURL := fmt.Sprintf("%s/graphs/%s/solve", ts.URL, reg.ID)

	const clients = 10
	bs := make([][]float64, clients)
	refs := make([][]float64, clients)
	for c := range bs {
		bs[c] = meanFreeRHS(reg.N, int64(70+c))
		var resp SolveResponse
		if code := doJSON(t, "POST", solveURL, SolveRequest{B: bs[c]}, &resp); code != 200 {
			t.Fatalf("reference solve %d: status %d", c, code)
		}
		refs[c] = resp.X
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var resp SolveResponse
			if code := doJSON(t, "POST", solveURL, SolveRequest{B: bs[c]}, &resp); code != 200 {
				errs[c] = fmt.Errorf("status %d", code)
				return
			}
			for i := range resp.X {
				if resp.X[i] != refs[c][i] {
					errs[c] = fmt.Errorf("entry %d: concurrent %g != sequential %g", i, resp.X[i], refs[c][i])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	ts := testServer(t, Config{MaxGraphs: 2})
	ids := make([]string, 3)
	for i, spec := range []string{"grid2d:8x8", "grid2d:9x9", "grid2d:10x10"} {
		var reg RegisterResponse
		if code := doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: spec}, &reg); code != 200 {
			t.Fatalf("register %s: status %d", spec, code)
		}
		ids[i] = reg.ID
	}
	// The first graph is the LRU victim; its id must now 404.
	b := meanFreeRHS(64, 1)
	code := doJSON(t, "POST", fmt.Sprintf("%s/graphs/%s/solve", ts.URL, ids[0]), SolveRequest{B: b}, nil)
	if code != http.StatusNotFound {
		t.Fatalf("evicted graph answered with status %d, want 404", code)
	}
	// The survivors still solve.
	b = meanFreeRHS(100, 2)
	var resp SolveResponse
	if code := doJSON(t, "POST", fmt.Sprintf("%s/graphs/%s/solve", ts.URL, ids[2]), SolveRequest{B: b}, &resp); code != 200 {
		t.Fatalf("cached graph: status %d", code)
	}
	var health ServerStats
	doJSON(t, "GET", ts.URL+"/healthz", nil, &health)
	if health.Graphs != 2 || health.Evictions != 1 {
		t.Fatalf("health reports %d graphs / %d evictions, want 2 / 1", health.Graphs, health.Evictions)
	}
}

func TestBadRequests(t *testing.T) {
	ts := testServer(t, Config{MaxBatch: 2})
	// Unknown id.
	if code := doJSON(t, "POST", ts.URL+"/graphs/gdeadbeef/solve", SolveRequest{B: []float64{1}}, nil); code != 404 {
		t.Fatalf("unknown id: status %d, want 404", code)
	}
	// Bad spec.
	if code := doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "nosuch:1"}, nil); code != 400 {
		t.Fatalf("bad spec: status %d, want 400", code)
	}
	// Both payload kinds at once.
	if code := doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "path:5", EdgeList: "0 1"}, nil); code != 400 {
		t.Fatalf("ambiguous payload: status %d, want 400", code)
	}
	var reg RegisterResponse
	doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "path:16"}, &reg)
	solveURL := fmt.Sprintf("%s/graphs/%s/solve", ts.URL, reg.ID)
	// Wrong RHS length.
	if code := doJSON(t, "POST", solveURL, SolveRequest{B: []float64{1, 2}}, nil); code != 400 {
		t.Fatalf("wrong rhs length: status %d, want 400", code)
	}
	// Batch over the limit.
	big := [][]float64{meanFreeRHS(16, 1), meanFreeRHS(16, 2), meanFreeRHS(16, 3)}
	if code := doJSON(t, "POST", solveURL, SolveRequest{Batch: big}, nil); code != 400 {
		t.Fatalf("oversized batch: status %d, want 400", code)
	}
	// Neither b nor batch.
	if code := doJSON(t, "POST", solveURL, SolveRequest{}, nil); code != 400 {
		t.Fatalf("empty solve request: status %d, want 400", code)
	}
}

// TestOversizedGraphRejected: registration payloads beyond the configured
// size caps are refused before any build work starts.
func TestOversizedGraphRejected(t *testing.T) {
	ts := testServer(t, Config{MaxGraphVertices: 100})
	if code := doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "grid2d:20x20"}, nil); code != 400 {
		t.Fatalf("oversized graph: status %d, want 400", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "grid2d:8x8"}, nil); code != 200 {
		t.Fatalf("within-cap graph: status %d, want 200", code)
	}
}

// TestGraphIDCanonicalization exercises the hash directly.
func TestGraphIDCanonicalization(t *testing.T) {
	a := gen.Grid2D(5, 5)
	b := gen.Grid2D(5, 5)
	if GraphID(a) != GraphID(b) {
		t.Fatal("identical graphs hash differently")
	}
	c := gen.Grid2D(5, 6)
	if GraphID(a) == GraphID(c) {
		t.Fatal("different graphs collide")
	}
}

// TestCacheByteBudgetEviction: with a byte budget too small for two chains,
// registering a second graph must evict the first even though the entry
// count is far under MaxGraphs — the huge-chain OOM guard.
func TestCacheByteBudgetEviction(t *testing.T) {
	ts := testServer(t, Config{MaxGraphs: 16, MaxCacheBytes: 1, Workers: 1})
	var r1, r2 RegisterResponse
	if code := doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "grid2d:12x12"}, &r1); code != http.StatusOK {
		t.Fatalf("register 1: status %d", code)
	}
	var st1 GraphStats
	if code := doJSON(t, "GET", ts.URL+"/graphs/"+r1.ID+"/stats", nil, &st1); code != http.StatusOK {
		t.Fatalf("stats 1: status %d", code)
	}
	if st1.Bytes <= 0 {
		t.Fatalf("entry bytes not accounted: %d", st1.Bytes)
	}
	if code := doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "grid2d:13x13"}, &r2); code != http.StatusOK {
		t.Fatalf("register 2: status %d", code)
	}
	var health ServerStats
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if health.Graphs != 1 {
		t.Fatalf("byte budget kept %d graphs, want 1", health.Graphs)
	}
	if health.Evictions < 1 {
		t.Fatalf("no eviction recorded: %+v", health)
	}
	if health.CacheBytes <= 0 || health.MaxCacheBytes != 1 {
		t.Fatalf("cache byte counters wrong: bytes=%d max=%d", health.CacheBytes, health.MaxCacheBytes)
	}
	// The evicted first graph must now 404; the survivor must solve.
	var solve SolveResponse
	b := meanFreeRHS(12*12, 3)
	if code := doJSON(t, "POST", ts.URL+"/graphs/"+r1.ID+"/solve", SolveRequest{B: b}, &solve); code != http.StatusNotFound {
		t.Fatalf("evicted graph solve: status %d, want 404", code)
	}
	b2 := meanFreeRHS(13*13, 4)
	if code := doJSON(t, "POST", ts.URL+"/graphs/"+r2.ID+"/solve", SolveRequest{B: b2}, &solve); code != http.StatusOK {
		t.Fatalf("survivor solve: status %d", code)
	}
}

// TestCacheBytesReleasedOnEviction: with a budget fitting roughly one chain,
// repeated registrations must keep CacheBytes bounded (evictions subtract
// their bytes) rather than accumulating.
func TestCacheBytesReleasedOnEviction(t *testing.T) {
	srv := New(Config{MaxGraphs: 16, MaxCacheBytes: 1, Workers: 1})
	specs := []string{"grid2d:10x10", "grid2d:11x11", "grid2d:12x12"}
	var last int64
	for _, spec := range specs {
		g, err := gen.FromSpec(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := srv.Register(context.Background(), g, spec); err != nil {
			t.Fatal(err)
		}
		h := srv.Health()
		if h.Graphs != 1 {
			t.Fatalf("after %s: %d graphs cached, want 1", spec, h.Graphs)
		}
		last = h.CacheBytes
	}
	// Only the last chain's bytes remain accounted.
	srv.mu.Lock()
	var want int64
	for _, e := range srv.entries {
		want += e.bytes
	}
	srv.mu.Unlock()
	if last != want {
		t.Fatalf("CacheBytes %d, want sum of cached entries %d", last, want)
	}
}

// waitQueueLen spins until the admitter's queue holds n waiters.
func waitQueueLen(t *testing.T, a *admitter, n int) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		a.mu.Lock()
		l := a.queue.Len()
		a.mu.Unlock()
		if l == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never reached %d waiters", n)
}

// TestAdmitterPerGraphSharding: a hot graph holding every slot (allowed
// while uncontended) must yield its next slot to a later-arriving request
// for a different graph before its own queued request — and the capped
// waiter must still be admitted afterwards (no starvation either way).
func TestAdmitterPerGraphSharding(t *testing.T) {
	a := newAdmitter(2, 1)
	ctx := context.Background()
	// Uncontended fallback: the hot graph may exceed its per-graph cap.
	if err := a.Acquire(ctx, "hot"); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(ctx, "hot"); err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 2)
	go func() {
		if err := a.Acquire(ctx, "hot"); err == nil {
			order <- "hot"
		}
	}()
	waitQueueLen(t, a, 1) // hot's third request queued first...
	go func() {
		if err := a.Acquire(ctx, "cold"); err == nil {
			order <- "cold"
		}
	}()
	waitQueueLen(t, a, 2) // ...then cold's.
	a.Release("hot")
	if got := <-order; got != "cold" {
		t.Fatalf("first freed slot went to %q, want the other graph", got)
	}
	a.Release("hot")
	if got := <-order; got != "hot" {
		t.Fatalf("second freed slot went to %q, want the capped graph", got)
	}
	a.Release("cold")
	a.Release("hot")
	if g, tot := a.Inflight("hot"); tot != 0 || g != 0 {
		t.Fatalf("slots leaked: hot=%d total=%d", g, tot)
	}
}

// TestAdmitterAcquireContextCancel: a queued waiter whose context expires
// must leave the queue without leaking a slot.
func TestAdmitterAcquireContextCancel(t *testing.T) {
	a := newAdmitter(1, 1)
	if err := a.Acquire(context.Background(), "g1"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- a.Acquire(ctx, "g2") }()
	waitQueueLen(t, a, 1)
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("cancelled acquire returned %v", err)
	}
	a.Release("g1")
	if err := a.Acquire(context.Background(), "g3"); err != nil {
		t.Fatal(err)
	}
	a.Release("g3")
	_, tot := a.Inflight("g3")
	if tot != 0 {
		t.Fatalf("slots leaked after cancel: total=%d", tot)
	}
}

// TestAdmitterWorkConserving: when every waiting graph is at its per-graph
// cap and slots are still free, the cap must not idle capacity — the FIFO
// head gets the slot anyway.
func TestAdmitterWorkConserving(t *testing.T) {
	a := newAdmitter(4, 1)
	ctx := context.Background()
	// A and B each at their cap of 1, two slots still free, both queued:
	// neither is under-cap, so work conservation must admit both.
	if err := a.Acquire(ctx, "A"); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(ctx, "B"); err != nil {
		t.Fatal(err)
	}
	done := make(chan string, 2)
	go func() {
		if err := a.Acquire(ctx, "A"); err == nil {
			done <- "A"
		}
	}()
	go func() {
		if err := a.Acquire(ctx, "B"); err == nil {
			done <- "B"
		}
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("over-cap waiters idled despite free slots")
		}
	}
	_, tot := a.Inflight("A")
	if tot != 4 {
		t.Fatalf("total inflight %d, want 4", tot)
	}
	for _, id := range []string{"A", "A", "B", "B"} {
		a.Release(id)
	}
}
