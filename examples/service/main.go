// Example service is the build-once / solve-many client for sddserver, and
// doubles as the CI smoke check: it waits for the server, registers a graph
// (twice, to demonstrate the chain cache), solves several right-hand sides
// one at a time and then again as one batch, verifies the batch answers are
// bitwise identical to the single-solve answers, and checks the reported
// residuals against a threshold. Exit status is non-zero on any failure, so
// it can gate CI.
//
// With -load N it switches to load-generator mode: after registering, C
// concurrent workers (-concurrency) fire N solve requests at the cached
// chain, latencies land in the same log-bucketed histogram the server's
// /metrics uses (internal/obs), and the run prints p50/p95/p99/mean plus
// one ?debug=timings stage breakdown — the latency-harness half of the
// observability story, suitable as a CI benchmark artifact.
//
// Usage (against a running server):
//
//	go run ./cmd/sddserver -addr 127.0.0.1:8080 &
//	go run ./examples/service -addr http://127.0.0.1:8080 -spec grid2d:64x64 -rhs 4
//	go run ./examples/service -addr http://127.0.0.1:8080 -spec grid2d:64x64 -load 200 -concurrency 4
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parlap/internal/obs"
)

var (
	addr        = flag.String("addr", "http://127.0.0.1:8080", "sddserver base URL")
	spec        = flag.String("spec", "grid2d:64x64", "generator spec to register")
	seed        = flag.Int64("seed", 1, "generator + RHS seed")
	numRHS      = flag.Int("rhs", 4, "number of right-hand sides")
	eps         = flag.Float64("eps", 1e-6, "relative residual target")
	maxResidual = flag.Float64("max-residual", 1e-5, "fail if any reported residual exceeds this")
	waitFor     = flag.Duration("wait", 15*time.Second, "how long to poll /healthz for server start-up")
	// Warm-restart smoke support: dump the single-solve solutions to a file
	// in one server lifetime, require bitwise-equal solutions against that
	// file in the next, and assert the second lifetime actually restored its
	// chain from a snapshot instead of rebuilding.
	dumpX       = flag.String("dump-x", "", "write the single-solve solutions to this JSON file")
	requireX    = flag.String("require-x", "", "fail unless the single-solve solutions are bitwise identical to this JSON file (from -dump-x)")
	minSnapHits = flag.Int64("min-snapshot-hits", 0, "fail unless /healthz reports at least this many snapshot hits")
	snapHealthz = flag.String("snapshot-healthz", "", "base URL whose /healthz the -min-snapshot-hits check reads (default -addr; set to a specific shard when -addr points at sddrouter)")
	// Load-generator mode.
	load        = flag.Int("load", 0, "fire this many solve requests and report latency percentiles (0 = run the smoke checks instead)")
	concurrency = flag.Int("concurrency", 4, "concurrent load-generator workers (with -load)")
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "service example: "+format+"\n", args...)
	os.Exit(1)
}

func postJSON(url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(r.Body).Decode(&e)
		return fmt.Errorf("%s: %s (%s)", url, r.Status, e.Error)
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

func getJSON(url string, resp any) error {
	r, err := http.Get(url)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, r.Status)
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

type registerResp struct {
	ID      string  `json:"id"`
	N       int     `json:"n"`
	M       int     `json:"m"`
	Cached  bool    `json:"cached"`
	BuildMS float64 `json:"build_ms"`
	Levels  int     `json:"levels"`
}

type solveStats struct {
	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
	Residual   float64 `json:"residual"`
}

type solveTimings struct {
	TotalMS   float64   `json:"total_ms"`
	DecodeMS  float64   `json:"decode_ms"`
	EncodeMS  float64   `json:"encode_ms"`
	QueueMS   float64   `json:"queue_ms"`
	PCGMS     float64   `json:"pcg_ms"`
	PrecondMS float64   `json:"precond_ms"`
	BottomMS  float64   `json:"bottom_ms"`
	Levels    int       `json:"levels"`
	ChebMS    []float64 `json:"cheb_ms_per_level"`
	ForwardMS []float64 `json:"forward_ms_per_level"`
	BackMS    []float64 `json:"back_ms_per_level"`
}

type solveResp struct {
	X          []float64     `json:"x"`
	Stats      *solveStats   `json:"stats"`
	Xs         [][]float64   `json:"xs"`
	BatchStats []solveStats  `json:"batch_stats"`
	Timings    *solveTimings `json:"timings"`
}

func main() {
	flag.Parse()

	// Wait for the server.
	deadline := time.Now().Add(*waitFor)
	for {
		var health struct {
			Status string `json:"status"`
		}
		err := getJSON(*addr+"/healthz", &health)
		if err == nil && health.Status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			fatalf("server at %s not healthy after %s: %v", *addr, *waitFor, err)
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Register: the first call pays for the chain build, the second hits
	// the cache (same canonical hash).
	var reg registerResp
	if err := postJSON(*addr+"/graphs", map[string]any{"spec": *spec, "seed": *seed}, &reg); err != nil {
		fatalf("register: %v", err)
	}
	fmt.Printf("registered %s: id=%s n=%d m=%d levels=%d build=%.1fms cached=%v\n",
		*spec, reg.ID, reg.N, reg.M, reg.Levels, reg.BuildMS, reg.Cached)
	var reg2 registerResp
	if err := postJSON(*addr+"/graphs", map[string]any{"spec": *spec, "seed": *seed}, &reg2); err != nil {
		fatalf("re-register: %v", err)
	}
	if !reg2.Cached || reg2.ID != reg.ID {
		fatalf("second registration was not a cache hit (cached=%v id=%s want %s)", reg2.Cached, reg2.ID, reg.ID)
	}
	fmt.Printf("re-registered: cache hit, chain built exactly once\n")

	if *load > 0 {
		runLoad(reg)
		return
	}

	// Random mean-free right-hand sides.
	rng := rand.New(rand.NewSource(*seed + 1000))
	bs := make([][]float64, *numRHS)
	for c := range bs {
		b := make([]float64, reg.N)
		mean := 0.0
		for i := range b {
			b[i] = rng.NormFloat64()
			mean += b[i]
		}
		mean /= float64(reg.N)
		for i := range b {
			b[i] -= mean
		}
		bs[c] = b
	}

	// Solve one at a time (build-once / solve-many: each call reuses the
	// cached chain).
	singles := make([][]float64, *numRHS)
	solveURL := fmt.Sprintf("%s/graphs/%s/solve", *addr, reg.ID)
	t0 := time.Now()
	for c, b := range bs {
		var resp solveResp
		if err := postJSON(solveURL, map[string]any{"b": b, "eps": *eps}, &resp); err != nil {
			fatalf("solve %d: %v", c, err)
		}
		if resp.Stats == nil || !resp.Stats.Converged {
			fatalf("solve %d did not converge: %+v", c, resp.Stats)
		}
		if resp.Stats.Residual > *maxResidual {
			fatalf("solve %d residual %.3e exceeds %g", c, resp.Stats.Residual, *maxResidual)
		}
		fmt.Printf("solve %d: iters=%d residual=%.3e\n", c, resp.Stats.Iterations, resp.Stats.Residual)
		singles[c] = resp.X
	}
	singleDur := time.Since(t0)

	// The same right-hand sides as one batched request: one preconditioner-
	// chain pass per iteration serves the whole batch, and the answers are
	// bitwise identical to the single solves.
	var batch solveResp
	t0 = time.Now()
	if err := postJSON(solveURL, map[string]any{"batch": bs, "eps": *eps}, &batch); err != nil {
		fatalf("batch solve: %v", err)
	}
	batchDur := time.Since(t0)
	if len(batch.Xs) != *numRHS {
		fatalf("batch returned %d solutions, want %d", len(batch.Xs), *numRHS)
	}
	for c := range batch.Xs {
		if st := batch.BatchStats[c]; st.Residual > *maxResidual {
			fatalf("batch column %d residual %.3e exceeds %g", c, st.Residual, *maxResidual)
		}
		if len(batch.Xs[c]) != len(singles[c]) {
			fatalf("batch column %d length mismatch", c)
		}
		for i := range batch.Xs[c] {
			if batch.Xs[c][i] != singles[c][i] {
				fatalf("batch column %d differs from single solve at entry %d: %g vs %g",
					c, i, batch.Xs[c][i], singles[c][i])
			}
		}
	}
	fmt.Printf("batch of %d: bitwise identical to single solves (%s batched vs %s single)\n",
		*numRHS, batchDur.Round(time.Millisecond), singleDur.Round(time.Millisecond))

	// The same right-hand sides once more, streamed as ndjson rows: the
	// windowed streaming path must return the same bitwise answers in input
	// order.
	var ndjson bytes.Buffer
	for _, b := range bs {
		row, err := json.Marshal(b)
		if err != nil {
			fatalf("encode stream row: %v", err)
		}
		ndjson.Write(row)
		ndjson.WriteByte('\n')
	}
	streamURL := fmt.Sprintf("%s/graphs/%s/solve/stream?eps=%g", *addr, reg.ID, *eps)
	resp, err := http.Post(streamURL, "application/x-ndjson", &ndjson)
	if err != nil {
		fatalf("stream solve: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatalf("stream solve: %s", resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	streamed := 0
	for dec.More() {
		var row struct {
			Row       int       `json:"row"`
			X         []float64 `json:"x"`
			Converged bool      `json:"converged"`
			Residual  float64   `json:"residual"`
			Error     string    `json:"error"`
		}
		if err := dec.Decode(&row); err != nil {
			fatalf("stream row decode: %v", err)
		}
		if row.Error != "" {
			fatalf("stream error row: %s", row.Error)
		}
		if row.Row != streamed {
			fatalf("stream rows out of order: got %d want %d", row.Row, streamed)
		}
		if row.Residual > *maxResidual {
			fatalf("stream row %d residual %.3e exceeds %g", row.Row, row.Residual, *maxResidual)
		}
		if len(row.X) != len(singles[streamed]) {
			fatalf("stream row %d has %d entries, single solve has %d", streamed, len(row.X), len(singles[streamed]))
		}
		for i := range row.X {
			if row.X[i] != singles[streamed][i] {
				fatalf("stream row %d differs from single solve at entry %d: %g vs %g",
					streamed, i, row.X[i], singles[streamed][i])
			}
		}
		streamed++
	}
	if streamed != *numRHS {
		fatalf("stream returned %d rows, want %d", streamed, *numRHS)
	}
	fmt.Printf("stream of %d: bitwise identical to single solves, rows in order\n", streamed)

	// Chain-cache accounting.
	var stats struct {
		CacheHits int64 `json:"cache_hits"`
		Solves    int64 `json:"solves"`
		RHSServed int64 `json:"rhs_served"`
	}
	if err := getJSON(fmt.Sprintf("%s/graphs/%s/stats", *addr, reg.ID), &stats); err != nil {
		fatalf("stats: %v", err)
	}
	if stats.CacheHits < 1 {
		fatalf("stats report %d cache hits, want >= 1", stats.CacheHits)
	}
	fmt.Printf("stats: cache_hits=%d solves=%d rhs_served=%d\n", stats.CacheHits, stats.Solves, stats.RHSServed)

	// Warm-restart verification: solutions dumped in a previous server
	// lifetime must match this lifetime's bit for bit (JSON float64
	// round-trips exactly, so file comparison is bitwise), and the restart
	// must have been served from the snapshot store, not a rebuild.
	if *dumpX != "" {
		data, err := json.Marshal(singles)
		if err != nil {
			fatalf("encode -dump-x: %v", err)
		}
		if err := os.WriteFile(*dumpX, data, 0o644); err != nil {
			fatalf("write -dump-x: %v", err)
		}
		fmt.Printf("dumped %d solution vectors to %s\n", len(singles), *dumpX)
	}
	if *requireX != "" {
		data, err := os.ReadFile(*requireX)
		if err != nil {
			fatalf("read -require-x: %v", err)
		}
		var want [][]float64
		if err := json.Unmarshal(data, &want); err != nil {
			fatalf("decode -require-x: %v", err)
		}
		if len(want) != len(singles) {
			fatalf("-require-x holds %d vectors, this run solved %d", len(want), len(singles))
		}
		for c := range want {
			if len(want[c]) != len(singles[c]) {
				fatalf("-require-x vector %d has %d entries, this run %d", c, len(want[c]), len(singles[c]))
			}
			for i := range want[c] {
				if math.Float64bits(want[c][i]) != math.Float64bits(singles[c][i]) {
					fatalf("solution %d differs from %s at entry %d: %x vs %x — restored chain is not bit-identical",
						c, *requireX, i, math.Float64bits(singles[c][i]), math.Float64bits(want[c][i]))
				}
			}
		}
		fmt.Printf("solutions bitwise identical to %s across the restart\n", *requireX)
	}
	checkSnapHits()
	fmt.Println("OK")
}

func checkSnapHits() {
	if *minSnapHits > 0 {
		base := *addr
		if *snapHealthz != "" {
			base = *snapHealthz
		}
		var health struct {
			SnapshotHits   int64 `json:"snapshot_hits"`
			SnapshotErrors int64 `json:"snapshot_errors"`
		}
		if err := getJSON(base+"/healthz", &health); err != nil {
			fatalf("healthz: %v", err)
		}
		if health.SnapshotHits < *minSnapHits {
			fatalf("snapshot_hits=%d, want >= %d — the server rebuilt instead of restoring", health.SnapshotHits, *minSnapHits)
		}
		fmt.Printf("snapshot_hits=%d (errors=%d): chain served from the snapshot store\n",
			health.SnapshotHits, health.SnapshotErrors)
	}
}

// runLoad is the load-generator mode: -concurrency workers fire -load solve
// requests at the cached chain, each latency lands in the same log-bucketed
// histogram the server's /metrics exports (internal/obs), and the run
// reports client-observed percentiles plus one ?debug=timings stage
// breakdown. Output is stable line-per-fact text, suitable as a CI
// artifact.
func runLoad(reg registerResp) {
	solveURL := fmt.Sprintf("%s/graphs/%s/solve", *addr, reg.ID)
	// A small pool of distinct mean-free right-hand sides, cycled across
	// requests: varied enough to defeat any hypothetical answer caching,
	// cheap enough to generate at any -load.
	const pool = 8
	rng := rand.New(rand.NewSource(*seed + 2000))
	bs := make([][]float64, pool)
	for c := range bs {
		b := make([]float64, reg.N)
		mean := 0.0
		for i := range b {
			b[i] = rng.NormFloat64()
			mean += b[i]
		}
		mean /= float64(reg.N)
		for i := range b {
			b[i] -= mean
		}
		bs[c] = b
	}
	// One warm-up request so pooled workspaces exist before timing starts.
	var warm solveResp
	if err := postJSON(solveURL, map[string]any{"b": bs[0], "eps": *eps}, &warm); err != nil {
		fatalf("warm-up solve: %v", err)
	}

	var hist obs.Histogram
	var next, failures atomic.Int64
	errc := make(chan error, *concurrency)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *load {
					return
				}
				var resp solveResp
				ts := time.Now()
				err := postJSON(solveURL, map[string]any{"b": bs[i%pool], "eps": *eps}, &resp)
				if err == nil && (resp.Stats == nil || !resp.Stats.Converged || resp.Stats.Residual > *maxResidual) {
					err = fmt.Errorf("bad solve stats %+v", resp.Stats)
				}
				if err != nil {
					failures.Add(1)
					select {
					case errc <- fmt.Errorf("load request %d: %v", i, err):
					default:
					}
					continue
				}
				hist.ObserveSince(ts)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	if n := failures.Load(); n > 0 {
		fatalf("%d/%d load requests failed; first: %v", n, *load, <-errc)
	}

	snap := hist.Snapshot()
	if snap.Count != int64(*load) {
		fatalf("recorded %d latencies, want %d", snap.Count, *load)
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	fmt.Printf("load: %d requests, %d concurrent, graph %s (n=%d m=%d levels=%d)\n",
		*load, *concurrency, *spec, reg.N, reg.M, reg.Levels)
	fmt.Printf("latency_ms: p50=%.3f p95=%.3f p99=%.3f mean=%.3f min=%.3f max=%.3f\n",
		ms(snap.Quantile(0.50)), ms(snap.Quantile(0.95)), ms(snap.Quantile(0.99)),
		snap.Mean()/1e6, ms(snap.Min), ms(snap.Max))
	fmt.Printf("throughput: %.1f req/s over %s\n",
		float64(*load)/wall.Seconds(), wall.Round(time.Millisecond))

	// One traced request: the server-side stage breakdown for the same
	// solve the percentiles above measured from the outside.
	var dbg solveResp
	if err := postJSON(solveURL+"?debug=timings", map[string]any{"b": bs[0], "eps": *eps}, &dbg); err != nil {
		fatalf("debug=timings solve: %v", err)
	}
	tm := dbg.Timings
	if tm == nil || tm.TotalMS <= 0 {
		fatalf("?debug=timings returned no stage trace (got %+v)", tm)
	}
	perLevel := func(v []float64) string {
		parts := make([]string, len(v))
		for i, x := range v {
			parts[i] = fmt.Sprintf("%.3f", x)
		}
		return strings.Join(parts, ",")
	}
	fmt.Printf("timings_ms: total=%.3f decode=%.3f queue=%.3f pcg=%.3f precond=%.3f bottom=%.3f encode=%.3f levels=%d\n",
		tm.TotalMS, tm.DecodeMS, tm.QueueMS, tm.PCGMS, tm.PrecondMS, tm.BottomMS, tm.EncodeMS, tm.Levels)
	fmt.Printf("timings_ms_per_level: cheb=[%s] forward=[%s] back=[%s]\n",
		perLevel(tm.ChebMS), perLevel(tm.ForwardMS), perLevel(tm.BackMS))
	checkSnapHits()
	fmt.Println("OK")
}
