package service

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"parlap/internal/solver"
)

// scrape fetches /metrics and parses the exposition into a map from series
// (name plus label set, exactly as exposed) to value.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in line %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// depthPinnedChain pins the chain depth with the explicit size rule (the
// count-based default stops a 32x32 grid at one level, where no Chebyshev
// sweep ever runs), so the stage telemetry has a cheb stage to report.
func depthPinnedChain() *solver.ChainParams {
	p := solver.DefaultChainParams()
	p.BottomSizeEdges = 113 // ⌈1984^(1/3)⌉ + 100 (the direct-solve vertex floor) on grid2d:32x32
	return &p
}

// The full-catalogue scrape: after a register and a few solves, every key
// series must exist and the traffic-driven ones must be nonzero.
func TestMetricsExposition(t *testing.T) {
	ts := testServer(t, Config{Chain: depthPinnedChain()})
	var reg RegisterResponse
	// 32x32 with the depth pinned builds a depth-2 chain, so every stage —
	// the intermediate-level Chebyshev sweeps included — accumulates real
	// time.
	if code := doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "grid2d:32x32"}, &reg); code != 200 {
		t.Fatalf("register: status %d", code)
	}
	b := meanFreeRHS(1024, 3)
	solveURL := fmt.Sprintf("%s/graphs/%s/solve", ts.URL, reg.ID)
	for i := 0; i < 3; i++ {
		var resp SolveResponse
		if code := doJSON(t, "POST", solveURL, SolveRequest{B: b}, &resp); code != 200 {
			t.Fatalf("solve %d: status %d", i, code)
		}
	}

	m := scrape(t, ts.URL)
	positive := []string{
		"parlap_registers_total",
		"parlap_builds_total",
		"parlap_build_seconds_total",
		"parlap_cached_graphs",
		"parlap_cache_bytes",
		"parlap_cache_max_bytes",
		"parlap_solves_total",
		"parlap_rhs_total",
		"parlap_solve_duration_seconds_count",
		"parlap_solve_duration_seconds_sum",
		"parlap_uptime_seconds",
		"go_goroutines",
		"go_memstats_alloc_bytes",
	}
	for _, name := range positive {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name])
		}
	}
	if got := m["parlap_solves_total"]; got != 3 {
		t.Errorf("parlap_solves_total = %v, want 3", got)
	}
	gl := fmt.Sprintf(`{graph="%s"}`, reg.ID)
	if got := m["parlap_graph_solves_total"+gl]; got != 3 {
		t.Errorf("parlap_graph_solves_total%s = %v, want 3", gl, got)
	}
	if m["parlap_graph_solve_duration_seconds_count"+gl] != 3 {
		t.Errorf("per-graph latency histogram count = %v, want 3",
			m["parlap_graph_solve_duration_seconds_count"+gl])
	}
	// The stage histograms must have observed every solve, and the hot
	// stages must have accumulated real time.
	for _, stage := range []string{"queue", "workspace", "pcg", "precond", "cheb", "forward", "back", "bottom"} {
		key := fmt.Sprintf(`parlap_solve_stage_duration_seconds_count{stage="%s"}`, stage)
		if m[key] != 3 {
			t.Errorf("%s = %v, want 3", key, m[key])
		}
	}
	if m[`parlap_solve_stage_duration_seconds_sum{stage="precond"}`] <= 0 {
		t.Error("precond stage histogram recorded no time")
	}
	if m[fmt.Sprintf(`parlap_graph_stage_seconds_total{graph="%s",stage="cheb"}`, reg.ID)] <= 0 {
		t.Error("per-graph cheb stage counter recorded no time")
	}
	// HTTP traffic counters: the register, the solves, and nothing fictional.
	if m[`parlap_http_requests_total{route="register",code="200"}`] != 1 {
		t.Error("register route not counted")
	}
	if m[`parlap_http_requests_total{route="solve",code="200"}`] != 3 {
		t.Error("solve route not counted")
	}
}

// Every error path returns the JSON envelope with the request id from the
// X-Request-ID header — including the catch-all for unmatched routes.
func TestErrorEnvelopeCarriesRequestID(t *testing.T) {
	ts := testServer(t, Config{})
	for _, tc := range []struct {
		method, path, body string
		wantStatus         int
	}{
		{"POST", "/graphs/nope/solve", `{"b":[1,-1]}`, 404},
		{"POST", "/graphs", `{`, 400},
		{"GET", "/no/such/route", "", 404},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
		rid := resp.Header.Get("X-Request-ID")
		if rid == "" {
			t.Fatalf("%s %s: no X-Request-ID header", tc.method, tc.path)
		}
		want := fmt.Sprintf(`"request_id":"%s"`, rid)
		if !strings.Contains(string(body), `"error":`) || !strings.Contains(string(body), want) {
			t.Fatalf("%s %s: body %q lacks error envelope with %s", tc.method, tc.path, body, want)
		}
	}
}

// ?debug=timings returns the request's stage trace; without it the block is
// absent from the response.
func TestSolveDebugTimings(t *testing.T) {
	ts := testServer(t, Config{})
	var reg RegisterResponse
	doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "grid2d:16x16"}, &reg)
	b := meanFreeRHS(256, 5)
	base := fmt.Sprintf("%s/graphs/%s/solve", ts.URL, reg.ID)

	var plain SolveResponse
	if code := doJSON(t, "POST", base, SolveRequest{B: b}, &plain); code != 200 {
		t.Fatalf("solve: status %d", code)
	}
	if plain.Timings != nil {
		t.Fatal("timings present without ?debug=timings")
	}

	var dbg SolveResponse
	if code := doJSON(t, "POST", base+"?debug=timings", SolveRequest{B: b}, &dbg); code != 200 {
		t.Fatalf("debug solve: status %d", code)
	}
	tm := dbg.Timings
	if tm == nil {
		t.Fatal("no timings block with ?debug=timings")
	}
	if tm.TotalMS <= 0 || tm.PrecondMS <= 0 {
		t.Fatalf("empty timings: %+v", tm)
	}
	if tm.Levels <= 0 || len(tm.ChebMS) != tm.Levels || len(tm.ForwardMS) != tm.Levels || len(tm.BackMS) != tm.Levels {
		t.Fatalf("per-level arrays inconsistent with levels=%d: %+v", tm.Levels, tm)
	}
	var gs GraphStats
	doJSON(t, "GET", fmt.Sprintf("%s/graphs/%s/stats", ts.URL, reg.ID), nil, &gs)
	if tm.Stop == "" || tm.Stop != gs.Bottom.Stop {
		t.Fatalf("timings stop %q, /stats bottom stop %q", tm.Stop, gs.Bottom.Stop)
	}
	// Exclusive attribution: the stage pieces cannot exceed what they
	// partition.
	var stages float64
	for i := range tm.ChebMS {
		stages += tm.ChebMS[i] + tm.ForwardMS[i] + tm.BackMS[i]
	}
	stages += tm.BottomMS
	if stages > tm.PrecondMS*1.001 {
		t.Fatalf("stage pieces %.3fms exceed precond %.3fms", stages, tm.PrecondMS)
	}
}

// The /stats timings block appears once solves have run and summarizes the
// same histogram /metrics exports.
func TestStatsTimingsBlock(t *testing.T) {
	ts := testServer(t, Config{Chain: depthPinnedChain()})
	var reg RegisterResponse
	// Depth-2 chain (see TestMetricsExposition) so the cheb stage records.
	doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "grid2d:32x32"}, &reg)
	statsURL := fmt.Sprintf("%s/graphs/%s/stats", ts.URL, reg.ID)

	var before GraphStats
	doJSON(t, "GET", statsURL, nil, &before)
	if before.Timings != nil {
		t.Fatal("timings block present before any solve")
	}

	b := meanFreeRHS(1024, 7)
	doJSON(t, "POST", fmt.Sprintf("%s/graphs/%s/solve", ts.URL, reg.ID), SolveRequest{B: b}, &SolveResponse{})
	var after GraphStats
	doJSON(t, "GET", statsURL, nil, &after)
	tmg := after.Timings
	if tmg == nil || tmg.Solves != 1 {
		t.Fatalf("timings block missing or wrong count: %+v", tmg)
	}
	if tmg.P50MS <= 0 || tmg.P99MS < tmg.P50MS || tmg.MeanMS <= 0 {
		t.Fatalf("implausible quantiles: %+v", tmg)
	}
	found := false
	for _, st := range tmg.Stages {
		if st.Stage == "cheb" && st.TotalMS > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no cheb stage time in %+v", tmg.Stages)
	}
}

// "Why is this chain N levels deep" must be answerable from /stats alone,
// with the same counts on /metrics and in the build log line: the bottom's
// size and nnz(L), the stop reason, and for every probed level the two
// operation counts the truncation rule compared.
func TestStatsExplainChainDepth(t *testing.T) {
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	logger := slog.New(slog.NewTextHandler(lockedWriter{&logMu, &logBuf}, nil))
	ts := testServer(t, Config{Logger: logger})

	// A grid stops at level 1: the accepting probe rides on the bottom.
	var grid RegisterResponse
	if code := doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "grid2d:40x40"}, &grid); code != 200 {
		t.Fatalf("register grid: status %d", code)
	}
	var gs GraphStats
	doJSON(t, "GET", fmt.Sprintf("%s/graphs/%s/stats", ts.URL, grid.ID), nil, &gs)
	b := gs.Bottom
	if gs.Levels != 1 || b.Level != 1 || b.N <= 0 || b.NNZL <= 0 || b.Stop == "" {
		t.Fatalf("grid stats do not describe the truncation: levels %d, bottom %+v", gs.Levels, b)
	}
	if b.Probe == nil || b.Probe.Abandoned || b.Probe.SolveOps != 2*int64(b.NNZL) || b.Probe.SolveOps > b.Probe.SweepOps {
		t.Fatalf("grid bottom probe %+v does not show the rule being met (nnz(L)=%d)", b.Probe, b.NNZL)
	}

	// An expander is cut bottom-up at level 1: the bottom's probe shows the
	// direct side against the counted recursion it replaced.
	var exp RegisterResponse
	if code := doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "regular:1500:8"}, &exp); code != 200 {
		t.Fatalf("register expander: status %d", code)
	}
	var es GraphStats
	doJSON(t, "GET", fmt.Sprintf("%s/graphs/%s/stats", ts.URL, exp.ID), nil, &es)
	eb := es.Bottom
	if es.Levels != 1 || eb.Probe == nil || eb.Probe.Abandoned || eb.Probe.SolveOps != 2*int64(eb.NNZL) ||
		eb.Probe.SolveOps > eb.Probe.SweepOps || !strings.Contains(eb.Stop, "cut bottom-up") || !strings.Contains(eb.Stop, "recursion") {
		t.Fatalf("expander stats do not describe a bottom-up cut at level 1: levels %d, bottom %+v", es.Levels, eb)
	}

	// Under a tight fill bound the expander recurses: level 1's rejected
	// probe rides on the schedule.
	tight := solver.DefaultChainParams()
	tight.MaxBottomVertices = 100
	tts := testServer(t, Config{Chain: &tight})
	var deep RegisterResponse
	if code := doJSON(t, "POST", tts.URL+"/graphs", RegisterRequest{Spec: "regular:1500:8"}, &deep); code != 200 {
		t.Fatalf("register expander under a tight bound: status %d", code)
	}
	var ds GraphStats
	doJSON(t, "GET", fmt.Sprintf("%s/graphs/%s/stats", tts.URL, deep.ID), nil, &ds)
	if ds.Levels < 2 || len(ds.Schedule) != ds.Levels {
		t.Fatalf("expander built %d levels (schedule %d entries), want a deeper chain", ds.Levels, len(ds.Schedule))
	}
	pr := ds.Schedule[1].Probe
	if pr == nil || (!pr.Abandoned && pr.SolveOps <= pr.SweepOps) {
		t.Fatalf("expander level 1 probe %+v does not explain why the chain recursed", pr)
	}
	key := fmt.Sprintf(`parlap_graph_truncation_abandoned{graph="%s",level="1"}`, deep.ID)
	if got, ok := scrape(t, tts.URL)[key]; !ok || (got == 1) != pr.Abandoned {
		t.Errorf("%s = %v (present %v), want abandoned=%v", key, got, ok, pr.Abandoned)
	}

	m := scrape(t, ts.URL)
	gl := fmt.Sprintf(`{graph="%s"}`, grid.ID)
	if got := m["parlap_graph_bottom_nnz_l"+gl]; got != float64(b.NNZL) {
		t.Errorf("parlap_graph_bottom_nnz_l = %v, want %d", got, b.NNZL)
	}
	if got := m["parlap_graph_bottom_vertices"+gl]; got != float64(b.N) {
		t.Errorf("parlap_graph_bottom_vertices = %v, want %d", got, b.N)
	}
	if got := m["parlap_graph_chain_levels"+gl]; got != 1 {
		t.Errorf("parlap_graph_chain_levels = %v, want 1", got)
	}
	for side, want := range map[string]int64{"solve": b.Probe.SolveOps, "sweep": b.Probe.SweepOps} {
		key := fmt.Sprintf(`parlap_graph_truncation_ops{graph="%s",level="1",side="%s"}`, grid.ID, side)
		if got := m[key]; got != float64(want) {
			t.Errorf("%s = %v, want %d", key, got, want)
		}
	}
	for side, want := range map[string]int64{"solve": eb.Probe.SolveOps, "sweep": eb.Probe.SweepOps} {
		key := fmt.Sprintf(`parlap_graph_truncation_ops{graph="%s",level="1",side="%s"}`, exp.ID, side)
		if got := m[key]; got != float64(want) {
			t.Errorf("%s = %v, want %d", key, got, want)
		}
	}

	logMu.Lock()
	logs := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logs, "msg=chain_build") || !strings.Contains(logs, "bottom_nnz_l=") || !strings.Contains(logs, `stop="level 1`) {
		t.Errorf("chain_build log line does not say where and why the chain stopped:\n%s", logs)
	}
}

// TestStatsExplainBuildTime: /stats, /metrics and the chain_build log line
// say where a build's wall time went — per level and phase, with the
// elimination's rounds and ops — and the three agree.
func TestStatsExplainBuildTime(t *testing.T) {
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	logger := slog.New(slog.NewTextHandler(lockedWriter{&logMu, &logBuf}, nil))
	ts := testServer(t, Config{Logger: logger})
	var reg RegisterResponse
	if code := doJSON(t, "POST", ts.URL+"/graphs", RegisterRequest{Spec: "regular:1500:8"}, &reg); code != 200 {
		t.Fatalf("register: status %d", code)
	}
	var gs GraphStats
	doJSON(t, "GET", fmt.Sprintf("%s/graphs/%s/stats", ts.URL, reg.ID), nil, &gs)
	bt := gs.Build
	if bt == nil || len(bt.Levels) < gs.Levels+1 {
		t.Fatalf("build block %+v does not cover %d levels and the bottom", bt, gs.Levels)
	}
	// The expander is cut bottom-up: the record keeps the levels the cut
	// dropped, so it still adds up to the build's wall time.
	if len(bt.Levels) == gs.Levels+1 || !strings.Contains(gs.Bottom.Stop, "cut bottom-up") {
		t.Fatalf("build block has %d entries for %d levels, stop %q; want the dropped levels of a cut", len(bt.Levels), gs.Levels, gs.Bottom.Stop)
	}
	for i, lb := range bt.Levels {
		// Every entry but the last was built as a level, kept or not.
		built := i < len(bt.Levels)-1
		if lb.Level != i || lb.LaplacianMS <= 0 || (lb.Ops > 0) != built || (lb.Rounds > 0) != built ||
			(lb.SparsifyMS > 0) != built || (lb.EliminateMS > 0) != built {
			t.Errorf("level %d of %d: implausible build record %+v", i, gs.Levels, lb)
		}
	}
	if bt.FactorMS <= 0 || bt.CalibrateMS <= 0 || bt.TotalMS <= 0 || bt.TotalMS > gs.BuildMS {
		t.Errorf("factor %v calibrate %v total %v ms inside a %v ms registration", bt.FactorMS, bt.CalibrateMS, bt.TotalMS, gs.BuildMS)
	}
	m := scrape(t, ts.URL)
	sum := 0.0
	for _, ph := range bt.Phases() {
		key := fmt.Sprintf(`parlap_graph_build_seconds{graph="%s",phase="%s"}`, reg.ID, ph.Name)
		got, ok := m[key]
		if !ok || ph.MS < 0 || math.Abs(got-ph.MS/1e3) > 1e-9 {
			t.Errorf("%s = %v (present %v), /stats has %v ms", key, got, ok, ph.MS)
		}
		sum += ph.MS
	}
	if math.Abs(sum-bt.TotalMS) > 1e-6 {
		t.Errorf("phases sum to %v ms, total is %v ms", sum, bt.TotalMS)
	}
	logMu.Lock()
	logs := logBuf.String()
	logMu.Unlock()
	for _, attr := range []string{"laplacian_ms=", "fill_analysis_ms=", "sparsify_ms=", "eliminate_ms=", "factor_ms=", "calibrate_ms="} {
		if !strings.Contains(logs, attr) {
			t.Errorf("chain_build log line lacks %s:\n%s", attr, logs)
		}
	}
}

// lockedWriter serializes log writes from the server's goroutines.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
