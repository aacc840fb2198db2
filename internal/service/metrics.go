package service

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parlap/internal/obs"
	"parlap/internal/solver"
)

// Telemetry registry and the /metrics exposition. Everything here is
// observation-only: counters and histograms record around the solve path,
// never inside the arithmetic, so the bitwise determinism and zero-alloc
// contracts of the solver are untouched. The hot-path cost is a handful of
// atomic adds per solve; the mutex below guards only the HTTP route/code
// table, touched once per request after the response is written.

// metrics is the server-wide telemetry state. Per-graph series live on the
// entry (they must die with the eviction); everything global lives here.
type metrics struct {
	latency obs.Histogram // end-to-end solve latency, ns
	// rhsLatency is the per-right-hand-side view of the same solves: a
	// batch or stream window's wall time divided evenly across its k rows,
	// observed once per row. Request latency alone makes a batch look k×
	// slower than it is; this series is the per-RHS cost that batching
	// actually buys down.
	rhsLatency obs.Histogram
	stage      [obs.NumStages]obs.Histogram // per-stage solve latency, ns

	solves      atomic.Int64 // solve calls served (a stream window counts one)
	rhs         atomic.Int64 // right-hand sides solved
	solveErrors atomic.Int64 // solve/stream calls that returned an error

	streamWindows atomic.Int64
	streamRows    atomic.Int64

	mu   sync.Mutex
	http map[routeCode]int64 // finished HTTP requests by route and status
}

type routeCode struct {
	route string
	code  int
}

func newMetrics() *metrics {
	return &metrics{http: make(map[routeCode]int64)}
}

func (m *metrics) countHTTP(route string, code int) {
	m.mu.Lock()
	m.http[routeCode{route, code}]++
	m.mu.Unlock()
}

// observeSolve records one finished solve (or stream window): end-to-end
// latency into the global and per-graph histograms, each stage's duration
// into the global per-stage histograms, and the per-graph cumulative stage
// nanoseconds that back the /stats timings block and the
// parlap_graph_stage_seconds_total series.
func (s *Server) observeSolve(e *entry, tr *obs.SolveTrace, rhs int) {
	s.met.solves.Add(1)
	s.met.rhs.Add(int64(rhs))
	s.met.latency.Observe(tr.TotalNS)
	e.lat.Observe(tr.TotalNS)
	if rhs > 0 {
		per := tr.TotalNS / int64(rhs)
		for i := 0; i < rhs; i++ {
			s.met.rhsLatency.Observe(per)
			e.rhsLat.Observe(per)
		}
	}
	for _, st := range obs.Stages() {
		if st == obs.StageTotal {
			continue // the end-to-end histogram already covers it
		}
		ns := tr.StageNS(st)
		s.met.stage[st].Observe(ns)
		e.stageNS[st].Add(ns)
	}
	e.stageNS[obs.StageTotal].Add(tr.TotalNS)
}

// --- request IDs ---

type ridKey struct{}

// nextRequestID mints a process-unique request id: a per-boot prefix (the
// start time, so ids never collide across restarts in interleaved logs) and
// a sequence number.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%s-%06d", s.ridPrefix, s.ridSeq.Add(1))
}

// requestID extracts the request id the route wrapper stored in ctx; empty
// when the call did not come through the HTTP layer.
func requestID(ctx context.Context) string {
	rid, _ := ctx.Value(ridKey{}).(string)
	return rid
}

// --- route instrumentation ---

// statusWriter records the status code a handler writes. It forwards Flush
// so the ndjson streaming path keeps its per-row flushes, and Unwrap so
// http.ResponseController sees through it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// validRequestID reports whether an inbound X-Request-ID is safe to adopt:
// bounded length and a conservative charset, since it is echoed into logs,
// headers, and error envelopes verbatim.
func validRequestID(rid string) bool {
	if rid == "" || len(rid) > 64 {
		return false
	}
	for i := 0; i < len(rid); i++ {
		c := rid[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// route wraps a handler with the per-request plumbing: a request id (stored
// in the context, echoed in the X-Request-ID header, stamped into every
// error envelope), the route/status counter behind
// parlap_http_requests_total, and one structured log line per request. A
// sane inbound X-Request-ID — from the cluster router, or a client
// correlating its own calls — is adopted rather than replaced, so one id
// names the request across every hop's logs; anything else gets a minted
// id. The route name is passed explicitly because the Go 1.22 mux does not
// expose the matched pattern to the handler.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-ID")
		if !validRequestID(rid) {
			rid = s.nextRequestID()
		}
		r = r.WithContext(context.WithValue(r.Context(), ridKey{}, rid))
		w.Header().Set("X-Request-ID", rid)
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		h(sw, r)
		code := sw.code()
		s.met.countHTTP(name, code)
		s.log.Info("http_request",
			"request_id", rid,
			"route", name,
			"method", r.Method,
			"path", r.URL.Path,
			"status", code,
			"duration_ms", float64(time.Since(t0).Microseconds())/1000,
		)
	}
}

// --- /metrics exposition ---

// graphRow is the per-graph slice of the exposition, captured under s.mu
// and rendered after it is released.
type graphRow struct {
	id      string
	solves  int64
	rhs     int64
	hits    int64
	bytes   int64
	bottom  solver.BottomSchedule
	probes  []solver.TruncationProbe
	build   *solver.BuildTimings
	lat     obs.Snapshot
	rhsLat  obs.Snapshot
	stageNS [obs.NumStages]int64
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format, hand-rolled via obs.Expo (no dependencies). Ordering is
// deterministic — fixed catalogue order, stages in declaration order,
// graphs sorted by id — so scrapes diff cleanly and the exposition is
// testable byte-for-byte.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	graphs := len(s.entries)
	cacheBytes := s.cacheBytes
	rows := make([]graphRow, 0, len(s.entries))
	for id, e := range s.entries {
		select {
		case <-e.built:
		default:
			continue // still building: no series yet
		}
		if e.buildErr != nil {
			continue
		}
		row := graphRow{
			id:     id,
			solves: e.solves.Load(),
			rhs:    e.rhsServed.Load(),
			hits:   e.hits.Load(),
			bytes:  e.bytes,
			bottom: e.solver.Chain.BottomInfo(),
			probes: e.solver.Chain.Probes,
			build:  e.solver.Chain.Build,
			lat:    e.lat.Snapshot(),
			rhsLat: e.rhsLat.Snapshot(),
		}
		for i := range row.stageNS {
			row.stageNS[i] = e.stageNS[i].Load()
		}
		rows = append(rows, row)
	}
	s.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e := obs.NewExpo(w)

	// Serving counters.
	e.Header("parlap_uptime_seconds", "Seconds since the server started.", "gauge")
	e.Sample("parlap_uptime_seconds", nil, time.Since(s.start).Seconds())
	e.Header("parlap_registers_total", "Graph registration requests accepted.", "counter")
	e.Int("parlap_registers_total", nil, s.registers.Load())
	e.Header("parlap_cache_hits_total", "Registrations answered from the chain cache.", "counter")
	e.Int("parlap_cache_hits_total", nil, s.cacheHits.Load())
	e.Header("parlap_evictions_total", "Chain cache evictions.", "counter")
	e.Int("parlap_evictions_total", nil, s.evictions.Load())
	e.Header("parlap_builds_total", "Preconditioner chains built or restored.", "counter")
	e.Int("parlap_builds_total", nil, s.builds.Load())
	e.Header("parlap_build_seconds_total", "Cumulative chain build/restore wall time.", "counter")
	e.Sample("parlap_build_seconds_total", nil, float64(s.buildNanos.Load())/1e9)

	// Cache occupancy.
	e.Header("parlap_cached_graphs", "Graphs currently cached.", "gauge")
	e.Int("parlap_cached_graphs", nil, int64(graphs))
	e.Header("parlap_cache_bytes", "Estimated bytes retained by cached chains.", "gauge")
	e.Int("parlap_cache_bytes", nil, cacheBytes)
	e.Header("parlap_cache_max_bytes", "Chain cache byte budget.", "gauge")
	e.Int("parlap_cache_max_bytes", nil, s.cfg.MaxCacheBytes)

	// Snapshot store.
	e.Header("parlap_snapshot_hits_total", "Chains restored from the snapshot store.", "counter")
	e.Int("parlap_snapshot_hits_total", nil, s.snapHits.Load())
	e.Header("parlap_snapshot_misses_total", "Snapshot restore attempts that fell back to a build.", "counter")
	e.Int("parlap_snapshot_misses_total", nil, s.snapMisses.Load())
	e.Header("parlap_snapshot_writes_total", "Snapshot blobs written.", "counter")
	e.Int("parlap_snapshot_writes_total", nil, s.snapWrites.Load())
	e.Header("parlap_snapshot_errors_total", "Snapshot encode/decode/IO failures (all degraded safely).", "counter")
	e.Int("parlap_snapshot_errors_total", nil, s.snapErrors.Load())

	// Admission / occupancy.
	e.Header("parlap_inflight_solves", "Solves currently executing.", "gauge")
	e.Int("parlap_inflight_solves", nil, s.inflight.Load())
	e.Header("parlap_admission_queue_depth", "Solve requests waiting for an admission slot.", "gauge")
	e.Int("parlap_admission_queue_depth", nil, int64(s.admit.QueueDepth()))
	e.Header("parlap_build_queue_depth", "Registrations waiting for a build slot.", "gauge")
	e.Int("parlap_build_queue_depth", nil, s.buildWaiting.Load())

	// Solve traffic.
	e.Header("parlap_solves_total", "Solve calls served (a stream window counts as one).", "counter")
	e.Int("parlap_solves_total", nil, s.met.solves.Load())
	e.Header("parlap_rhs_total", "Right-hand sides solved.", "counter")
	e.Int("parlap_rhs_total", nil, s.met.rhs.Load())
	e.Header("parlap_solve_errors_total", "Solve and stream calls that returned an error.", "counter")
	e.Int("parlap_solve_errors_total", nil, s.met.solveErrors.Load())
	e.Header("parlap_stream_windows_total", "Streaming solve windows executed.", "counter")
	e.Int("parlap_stream_windows_total", nil, s.met.streamWindows.Load())
	e.Header("parlap_stream_rows_total", "Streaming solve rows emitted.", "counter")
	e.Int("parlap_stream_rows_total", nil, s.met.streamRows.Load())

	// Latency histograms: end-to-end, then per stage.
	e.Header("parlap_solve_duration_seconds", "End-to-end solve latency (admission queue included).", "histogram")
	e.Histogram("parlap_solve_duration_seconds", nil, s.met.latency.Snapshot())
	e.Header("parlap_rhs_duration_seconds", "Per-right-hand-side solve latency: a batch/stream window's time divided across its rows.", "histogram")
	e.Histogram("parlap_rhs_duration_seconds", nil, s.met.rhsLatency.Snapshot())
	e.Header("parlap_solve_stage_duration_seconds", "Per-stage solve latency, exclusive attribution.", "histogram")
	for _, st := range obs.Stages() {
		if st == obs.StageTotal {
			continue
		}
		e.Histogram("parlap_solve_stage_duration_seconds",
			[]obs.Label{{K: "stage", V: st.String()}}, s.met.stage[st].Snapshot())
	}

	// Per-graph series.
	e.Header("parlap_graph_solves_total", "Solve calls served per graph.", "counter")
	for _, row := range rows {
		e.Int("parlap_graph_solves_total", []obs.Label{{K: "graph", V: row.id}}, row.solves)
	}
	e.Header("parlap_graph_rhs_total", "Right-hand sides solved per graph.", "counter")
	for _, row := range rows {
		e.Int("parlap_graph_rhs_total", []obs.Label{{K: "graph", V: row.id}}, row.rhs)
	}
	e.Header("parlap_graph_cache_hits_total", "Cache-hit registrations per graph.", "counter")
	for _, row := range rows {
		e.Int("parlap_graph_cache_hits_total", []obs.Label{{K: "graph", V: row.id}}, row.hits)
	}
	e.Header("parlap_graph_bytes", "Estimated retained chain bytes per graph.", "gauge")
	for _, row := range rows {
		e.Int("parlap_graph_bytes", []obs.Label{{K: "graph", V: row.id}}, row.bytes)
	}
	e.Header("parlap_graph_chain_levels", "Chain levels above the direct bottom solve per graph.", "gauge")
	for _, row := range rows {
		e.Int("parlap_graph_chain_levels", []obs.Label{{K: "graph", V: row.id}}, int64(row.bottom.Level))
	}
	e.Header("parlap_graph_bottom_vertices", "Vertices of the graph the chain's direct bottom solver factors, per graph.", "gauge")
	for _, row := range rows {
		e.Int("parlap_graph_bottom_vertices", []obs.Label{{K: "graph", V: row.id}}, int64(row.bottom.N))
	}
	e.Header("parlap_graph_bottom_nnz_l", "nnz(L) of the sparse bottom factor per graph (one bottom solve costs twice this in multiply-adds).", "gauge")
	for _, row := range rows {
		e.Int("parlap_graph_bottom_nnz_l", []obs.Label{{K: "graph", V: row.id}}, int64(row.bottom.NNZL))
	}
	e.Header("parlap_graph_truncation_ops", "Operation counts the truncation rule compared at each probed level (side=solve: 2*nnz(L), or the count the symbolic pass abandoned at; side=sweep: MinChebIts*nnz(Lap)); the chain stops at the first level with solve <= sweep.", "gauge")
	for _, row := range rows {
		for _, pr := range row.probes {
			lvl := strconv.Itoa(pr.Level)
			e.Int("parlap_graph_truncation_ops", []obs.Label{{K: "graph", V: row.id}, {K: "level", V: lvl}, {K: "side", V: "solve"}}, pr.SolveOps)
			e.Int("parlap_graph_truncation_ops", []obs.Label{{K: "graph", V: row.id}, {K: "level", V: lvl}, {K: "side", V: "sweep"}}, pr.SweepOps)
		}
	}
	e.Header("parlap_graph_truncation_abandoned", "1 when the level's symbolic factorization ran past its budget and was abandoned, else 0.", "gauge")
	for _, row := range rows {
		for _, pr := range row.probes {
			var v int64
			if pr.Abandoned {
				v = 1
			}
			e.Int("parlap_graph_truncation_abandoned", []obs.Label{{K: "graph", V: row.id}, {K: "level", V: strconv.Itoa(pr.Level)}}, v)
		}
	}
	e.Header("parlap_graph_build_seconds", "Wall time of each chain build phase per graph, summed over levels (no series for a chain restored from a snapshot).", "gauge")
	for _, row := range rows {
		if row.build == nil {
			continue
		}
		for _, ph := range row.build.Phases() {
			e.Sample("parlap_graph_build_seconds", []obs.Label{{K: "graph", V: row.id}, {K: "phase", V: ph.Name}}, ph.MS/1e3)
		}
	}
	e.Header("parlap_graph_solve_duration_seconds", "End-to-end solve latency per graph.", "histogram")
	for _, row := range rows {
		e.Histogram("parlap_graph_solve_duration_seconds",
			[]obs.Label{{K: "graph", V: row.id}}, row.lat)
	}
	e.Header("parlap_graph_rhs_duration_seconds", "Per-right-hand-side solve latency per graph.", "histogram")
	for _, row := range rows {
		e.Histogram("parlap_graph_rhs_duration_seconds",
			[]obs.Label{{K: "graph", V: row.id}}, row.rhsLat)
	}
	e.Header("parlap_graph_stage_seconds_total", "Cumulative per-stage solve time per graph.", "counter")
	for _, row := range rows {
		for _, st := range obs.Stages() {
			e.Sample("parlap_graph_stage_seconds_total",
				[]obs.Label{{K: "graph", V: row.id}, {K: "stage", V: st.String()}},
				float64(row.stageNS[st])/1e9)
		}
	}

	// HTTP traffic.
	s.met.mu.Lock()
	keys := make([]routeCode, 0, len(s.met.http))
	for k := range s.met.http {
		keys = append(keys, k)
	}
	counts := make(map[routeCode]int64, len(keys))
	for k, v := range s.met.http {
		counts[k] = v
	}
	s.met.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].code < keys[j].code
	})
	e.Header("parlap_http_requests_total", "Finished HTTP requests by route and status.", "counter")
	for _, k := range keys {
		e.Int("parlap_http_requests_total",
			[]obs.Label{{K: "route", V: k.route}, {K: "code", V: fmt.Sprintf("%d", k.code)}},
			counts[k])
	}

	// Go runtime.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.Header("go_goroutines", "Number of goroutines.", "gauge")
	e.Int("go_goroutines", nil, int64(runtime.NumGoroutine()))
	e.Header("go_memstats_alloc_bytes", "Bytes of allocated heap objects.", "gauge")
	e.Int("go_memstats_alloc_bytes", nil, int64(ms.Alloc))
	e.Header("go_memstats_heap_inuse_bytes", "Bytes in in-use heap spans.", "gauge")
	e.Int("go_memstats_heap_inuse_bytes", nil, int64(ms.HeapInuse))
	e.Header("go_memstats_sys_bytes", "Bytes obtained from the OS.", "gauge")
	e.Int("go_memstats_sys_bytes", nil, int64(ms.Sys))
	e.Header("go_gc_cycles_total", "Completed GC cycles.", "counter")
	e.Int("go_gc_cycles_total", nil, int64(ms.NumGC))
	e.Header("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause.", "counter")
	e.Sample("go_gc_pause_seconds_total", nil, float64(ms.PauseTotalNs)/1e9)

	if err := e.Flush(); err != nil {
		s.log.Warn("metrics_write_failed", "err", err)
	}
}
