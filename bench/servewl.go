package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parlap/internal/chainio"
	"parlap/internal/graph"
	"parlap/internal/graphio"
	"parlap/internal/service"
	"parlap/internal/solver"
)

const (
	bodyPoolSize    = 16 // distinct seeded request bodies the clients cycle through
	fullCheckEvery  = 50 // every n-th response is decoded and residual-checked in-process
	convergedMarker = `"converged":true`
)

// client is one closed-loop caller: one keep-alive connection, one reused
// response buffer.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the reply to its last byte into c.buf;
// the returned duration is send → last response byte read.
func (c *client) do(method, url string, body []byte) (status int, d time.Duration, err error) {
	t0 := time.Now()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(t0), err
}

// rhsBody is one request of the pool: the vector and its JSON body.
type rhsBody struct {
	b    []float64
	json []byte
}

func (r *run) bodyPool(n, size int) []rhsBody {
	pool := make([]rhsBody, size)
	for i := range pool {
		b := rhs(n, r.seed, i)
		body := append([]byte(`{"b":`), graphio.AppendVectorRow(nil, b)...)
		pool[i] = rhsBody{b: b, json: append(body, '}')}
	}
	return pool
}

// registerBody is the POST /graphs body: the workload's generator spec, or
// the graph as an edge list when no spec names it.
func (r *run) registerBody(g *graph.Graph) ([]byte, error) {
	spec := r.w.spec
	if r.smoke {
		spec = r.w.smokeSpec
	}
	if spec != "" {
		return json.Marshal(service.RegisterRequest{Spec: spec})
	}
	var el bytes.Buffer
	if err := graphio.WriteEdgeList(&el, g); err != nil {
		return nil, err
	}
	return json.Marshal(service.RegisterRequest{EdgeList: el.String()})
}

func startServer(cfg service.Config) (*service.Server, *httptest.Server) {
	srv := service.New(cfg)
	return srv, httptest.NewServer(srv.Handler())
}

func (c *client) register(base string, body []byte) (service.RegisterResponse, time.Duration, error) {
	var reg service.RegisterResponse
	status, d, err := c.do("POST", base+"/graphs", body)
	if err != nil {
		return reg, d, err
	}
	if status != http.StatusOK {
		return reg, d, fmt.Errorf("POST /graphs: status %d: %s", status, c.buf.Bytes())
	}
	return reg, d, json.Unmarshal(c.buf.Bytes(), &reg)
}

// checkReply verifies one solve response held in c.buf. Every reply must
// be a 200 that says it converged; full also decodes the answer and
// recomputes the true residual against the in-process reference solver.
func (r *run) checkReply(c *client, status int, ref *solver.Solver, b []float64, full bool) bool {
	ok := status == http.StatusOK && bytes.Contains(c.buf.Bytes(), []byte(convergedMarker))
	if ok && full {
		var resp service.SolveResponse
		if err := json.Unmarshal(c.buf.Bytes(), &resp); err != nil || resp.Stats == nil || len(resp.X) != len(b) {
			ok = false
		} else {
			ok = resp.Stats.Converged && ref.Residual(resp.X, b) <= 2*eps
		}
	}
	r.op(ok, "solve request: status %d, %d reply bytes, full check %v", status, c.buf.Len(), full)
	return ok
}

// reqSample is one request as the client saw it and, when it asked for
// ?debug=timings, as the server reported it.
type reqSample struct {
	client      float64
	timed       bool
	serverTotal float64
	inner       float64 // workspace + outer PCG + preconditioner: the solver's share
	queue       float64
}

// serverTimings pulls the timings block off the end of a solve reply
// without decoding the answer vector in front of it.
func serverTimings(reply []byte) (service.SolveTimings, bool) {
	var t service.SolveTimings
	key := []byte(`"timings":`)
	i := bytes.LastIndex(reply, key)
	j := bytes.LastIndexByte(reply, '}')
	if i < 0 || j < i {
		return t, false
	}
	return t, json.Unmarshal(reply[i+len(key):j], &t) == nil
}

type loadResult struct {
	samples   []reqSample
	wall      float64
	okRHS     int
	errors    int // transport errors and statuses other than 200
	replySize int
}

// httpLoad is the closed loop: each of clients goroutines sends its next
// single-right-hand-side solve only after the previous reply is fully
// read, until budgetS has passed and at least minOps were sent. Every
// timingsEvery-th request (0 = never) asks for ?debug=timings; those get a
// span with the server's stages laid out under it.
func (r *run) httpLoad(base, id string, pool []rhsBody, ref *solver.Solver, clients int, budgetS float64, minOps, timingsEvery, parent int) loadResult {
	url := base + "/graphs/" + id + "/solve"
	var next atomic.Int64
	var mu sync.Mutex
	var out loadResult
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.close()
			var local []reqSample
			ok, errs, size := 0, 0, 0
			for {
				i := int(next.Add(1)) - 1
				if i >= minOps && time.Since(start).Seconds() >= budgetS {
					break
				}
				body := pool[i%len(pool)]
				u, timed := url, timingsEvery > 0 && i%timingsEvery == 0
				sp := 0
				if timed {
					u += "?debug=timings"
					sp = r.spans.begin("service.request", parent, fmt.Sprintf("req-%d", i))
				}
				status, d, err := c.do("POST", u, body.json)
				r.spans.end(sp)
				if err != nil || status != http.StatusOK {
					errs++
				}
				if err != nil {
					r.op(false, "solve request: %v", err)
					continue
				}
				if r.checkReply(c, status, ref, body.b, i%fullCheckEvery == 0) {
					ok++
				}
				s := reqSample{client: d.Seconds()}
				if !timed {
					local = append(local, s)
					size = c.buf.Len()
					continue
				}
				if t, found := serverTimings(c.buf.Bytes()); found {
					s.timed = true
					s.serverTotal, s.queue = t.TotalMS/1e3, t.QueueMS/1e3
					s.inner = (t.WorkspaceMS + t.PCGMS + t.PrecondMS) / 1e3
					if r.spans != nil {
						ids := r.spans.layOut(sp, []string{"service.server_total"}, []int64{int64(t.TotalMS * 1e6)})
						r.spans.layOut(ids[0], []string{"service.queue", "service.solve_inner"},
							[]int64{int64(t.QueueMS * 1e6), int64(s.inner * 1e9)})
					}
				}
				local = append(local, s)
				size = c.buf.Len()
			}
			mu.Lock()
			out.samples = append(out.samples, local...)
			out.okRHS += ok
			out.errors += errs
			out.replySize = size
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.wall = time.Since(start).Seconds()
	return out
}

func clientLatencies(samples []reqSample) []float64 {
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = s.client
	}
	return lat
}

func loadClients() int {
	if runtime.GOMAXPROCS(0) < 2 {
		return 1
	}
	return 2
}

// inProcessSolves is the library caller's cost of the same right-hand
// sides: the median wall of Solve on the pool, which the service's
// overhead is measured against.
func (r *run) inProcessSolves(ref *solver.Solver, pool []rhsBody, reps int) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		b := pool[i%len(pool)].b
		t0 := time.Now()
		x, st := ref.Solve(b, eps)
		ts[i] = time.Since(t0).Seconds()
		r.checkSolve(ref, x, b, st, "in-process solve")
	}
	return median(ts)
}

// serveE2E is the end-to-end pass of the service workload: what an
// operator and the programs calling the server wait for.
func (r *run) serveE2E() error {
	res := r.res
	g := r.w.graph(r.smoke)
	regBody, err := r.registerBody(g)
	if err != nil {
		return err
	}
	ref, err := solver.NewWithOptions(g, solver.DefaultChainParams(), solver.Options{}, nil)
	if err != nil {
		return fmt.Errorf("building the in-process reference: %w", err)
	}
	pool := r.bodyPool(g.N, bodyPoolSize)
	store, err := chainio.NewDirStore(filepath.Join(r.tmpDir, "serve-store"))
	if err != nil {
		return err
	}
	cfg := service.Config{DefaultEps: eps, Snapshots: store}

	c := newClient()
	defer c.close()
	var setup, first []float64
	var srv *service.Server
	var hs *httptest.Server
	var id string
	for i := 0; i < freshBuilds; i++ {
		sv, h := startServer(service.Config{DefaultEps: eps, Snapshots: cfg.Snapshots})
		reg, d, err := c.register(h.URL, regBody)
		if err != nil || reg.Cached {
			h.Close()
			return fmt.Errorf("first registration on a fresh server: cached=%v err=%v", reg.Cached, err)
		}
		setup = append(setup, d.Seconds())
		if i < firstSolves {
			status, d1, err := c.do("POST", h.URL+"/graphs/"+reg.ID+"/solve", pool[0].json)
			if err != nil {
				h.Close()
				return err
			}
			first = append(first, (d + d1).Seconds())
			r.checkReply(c, status, ref, pool[0].b, true)
		}
		if i == 0 {
			srv, hs, id = sv, h, reg.ID
			defer hs.Close()
		} else {
			h.Close()
		}
	}
	res.Samples["builds"], res.Samples["first_solves"] = len(setup), len(first)
	res.put("setup_s", "s", median(setup)).Note = "first (uncached) POST /graphs on a fresh server"
	res.put("first_answer_s", "s", median(first))

	// The in-process reference is sampled on both sides of the load so a
	// machine-wide drift during the run lands on numerator and denominator.
	const inprocReps = 300
	before := r.inProcessSolves(ref, pool, inprocReps)
	res.Clients = loadClients()
	load := r.httpLoad(hs.URL, id, pool, ref, res.Clients, r.seconds, minTimedOps, 0, 0)
	if len(load.samples) == 0 {
		return fmt.Errorf("no request completed: %v", res.Failures)
	}
	res.TimedWallS = load.wall
	lat := clientLatencies(load.samples)
	r.putSolveSamples(lat)
	res.put("rhs_per_s", "1/s", float64(load.okRHS)/load.wall)

	inproc := (before + r.inProcessSolves(ref, pool, inprocReps)) / 2
	res.Samples["in_process_solves"] = 2 * inprocReps
	res.put("baseline_ratio", "ratio", median(lat)/inproc).Note =
		fmt.Sprintf("solve_s / in-process Solver.Solve median %.4g s: here the alternative to the service is the library", inproc)

	mb, err := r.serverMemoryMB(c, hs.URL, id)
	if err != nil {
		return err
	}
	res.put("chain_mb", "MB", mb).Note = "cache_bytes of /healthz + workspace_bytes of /stats"

	// Warm restart: persist the cache, then time RestoreAll on fresh
	// servers over the same directory store.
	ctx := context.Background()
	if n, err := srv.SnapshotAll(ctx); err != nil || n != 1 {
		return fmt.Errorf("SnapshotAll wrote %d snapshots: %v", n, err)
	}
	var restore []float64
	var fresh *service.Server
	for i := 0; i < restoreReps; i++ {
		fresh = service.New(cfg)
		t0 := time.Now()
		n, err := fresh.RestoreAll(ctx)
		restore = append(restore, time.Since(t0).Seconds())
		if err != nil || n != 1 {
			return fmt.Errorf("RestoreAll restored %d chains: %v", n, err)
		}
	}
	res.Samples["restores"] = len(restore)
	res.put("restore_s", "s", median(restore)).Note = "RestoreAll on a fresh server over the DirStore"
	built, _, err1 := srv.Solve(ctx, id, [][]float64{pool[0].b}, 0)
	again, _, err2 := fresh.Solve(ctx, id, [][]float64{pool[0].b}, 0)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("solving on the built and restored servers: %v, %v", err1, err2)
	}
	r.op(bitsEqual(built[0], again[0]), "restored server's answer differs bitwise from the built one's")
	return nil
}

// serverMemoryMB reads the operator's view of retained memory.
func (r *run) serverMemoryMB(c *client, base, id string) (float64, error) {
	var health service.ServerStats
	var stats service.GraphStats
	for path, v := range map[string]any{"/healthz": &health, "/graphs/" + id + "/stats": &stats} {
		status, _, err := c.do("GET", base+path, nil)
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("GET %s: status %d: %v", path, status, err)
		}
		if err := json.Unmarshal(c.buf.Bytes(), v); err != nil {
			return 0, fmt.Errorf("GET %s: %w", path, err)
		}
	}
	return float64(health.CacheBytes+stats.WorkspaceBytes) / 1e6, nil
}

// serviceProbe is the service layer of the traced pass. On serve_http it
// is the timed phase itself (two clients, every 10th request asks the
// server for its timings); on the library-caller workloads it is a few
// requests against the workload's own graph, so the wrapper's cost on that
// input is on record too.
func (r *run) serviceProbe(g *graph.Graph, ref *solver.Solver, inprocS float64, root int) error {
	res, w := r.res, r.w
	regBody, err := r.registerBody(g)
	if err != nil {
		return err
	}
	_, hs := startServer(service.Config{DefaultEps: eps})
	defer hs.Close()
	c := newClient()
	defer c.close()
	sp := r.spans.begin("service.register", root, "register")
	reg, _, err := c.register(hs.URL, regBody)
	r.spans.end(sp)
	if err != nil {
		return err
	}

	clients, budget, every, poolSize := 1, r.seconds/5, 1, 3
	if w.serve {
		clients, budget, every, poolSize = loadClients(), r.seconds, 10, bodyPoolSize
		res.Clients = clients
	}
	pool := r.bodyPool(g.N, poolSize)
	load := r.httpLoad(hs.URL, reg.ID, pool, ref, clients, budget, 2, every, root)
	if w.serve {
		res.TimedWallS = load.wall
	}
	res.Samples["http_requests"] = len(load.samples)
	var total, inner, queue, wrapper []float64
	for _, s := range load.samples {
		if s.timed {
			total, inner, queue = append(total, s.serverTotal), append(inner, s.inner), append(queue, s.queue)
			wrapper = append(wrapper, s.client-s.serverTotal)
		}
	}
	if len(total) == 0 {
		return fmt.Errorf("no request returned server timings: %v", res.Failures)
	}
	res.Samples["http_requests_with_timings"] = len(total)
	clientMed := median(clientLatencies(load.samples))
	res.put("service.request_s", "s", clientMed).Note = "client-observed median, traced pass"
	res.put("service.server_total_s", "s", median(total))
	res.put("service.solve_inner_s", "s", median(inner)).Note = "workspace + outer PCG + preconditioner, from ?debug=timings"
	res.put("service.queue_s", "s", median(queue))
	res.put("service.wrapper_s", "s", median(wrapper)).Note = "client-observed - server_total, per timed request"
	res.put("service.overhead_share", "ratio", 1-inprocS/clientMed).Note =
		fmt.Sprintf("1 - in-process solve median %.4g s / request median", inprocS)
	res.count("service.http_errors", load.errors)
	res.put("service.req_mb", "MB", float64(len(pool[0].json))/1e6)
	res.put("service.resp_mb", "MB", float64(load.replySize)/1e6)

	// What the standard library charges for the same bodies: a reference
	// for the handler's JSON work, not a measurement of the handler.
	x, _ := ref.Solve(pool[0].b, eps)
	reply, err := json.Marshal(service.SolveResponse{X: x, Stats: &service.SolveStatsJSON{Converged: true}})
	if err != nil {
		return err
	}
	res.put("service.json_decode_ref_s", "s", r.timed("service.json_decode_ref", root, 20, func() {
		var req service.SolveRequest
		_ = json.Unmarshal(pool[0].json, &req) // well-formed: AppendVectorRow wrote it
	}))
	res.put("service.json_encode_ref_s", "s", r.timed("service.json_encode_ref", root, 20, func() {
		_, _ = json.Marshal(service.SolveResponse{X: x, Stats: &service.SolveStatsJSON{Converged: true}})
	})).Note = fmt.Sprintf("%d bytes", len(reply))

	var probeErr error
	get := func(name, method, path string, body []byte, reps int) {
		res.put("service."+name+"_s", "s", r.timed("service."+name, root, reps, func() {
			if status, _, err := c.do(method, hs.URL+path, body); err != nil || status != http.StatusOK {
				probeErr = fmt.Errorf("%s %s: status %d: %v", method, path, status, err)
			}
		}))
	}
	get("register_cached", "POST", "/graphs", regBody, 5)
	get("stats", "GET", "/graphs/"+reg.ID+"/stats", nil, 20)
	get("metrics", "GET", "/metrics", nil, 20)
	if probeErr != nil {
		return probeErr
	}
	if !w.serve {
		return nil
	}

	// One batch request of 8 and one streamed solve: the two other ways a
	// caller hands the service right-hand sides.
	const batch = 8
	rows := r.reps(64)
	var bb, sb bytes.Buffer
	bb.WriteString(`{"batch":[`)
	for i := 0; i < batch; i++ {
		if i > 0 {
			bb.WriteByte(',')
		}
		bb.Write(graphio.AppendVectorRow(nil, pool[i%len(pool)].b))
	}
	bb.WriteString(`]}`)
	sp = r.spans.begin("service.batch8", root, "batch8")
	status, d, err := c.do("POST", hs.URL+"/graphs/"+reg.ID+"/solve", bb.Bytes())
	r.spans.end(sp)
	r.op(err == nil && status == http.StatusOK && bytes.Count(c.buf.Bytes(), []byte(convergedMarker)) == batch,
		"batch request: status %d err %v", status, err)
	res.put("service.batch8_per_rhs_s", "s", d.Seconds()/batch)
	for i := 0; i < rows; i++ {
		sb.Write(graphio.AppendVectorRow(nil, pool[i%len(pool)].b))
		sb.WriteByte('\n')
	}
	sp = r.spans.begin("service.stream", root, "stream")
	status, d, err = c.do("POST", hs.URL+"/graphs/"+reg.ID+"/solve/stream", sb.Bytes())
	r.spans.end(sp)
	r.op(err == nil && status == http.StatusOK && bytes.Count(c.buf.Bytes(), []byte(convergedMarker)) == rows,
		"stream request: status %d err %v", status, err)
	res.put("service.stream_rows_per_s", "1/s", float64(rows)/d.Seconds()).Note = fmt.Sprintf("one %d-row /solve/stream", rows)
	return nil
}
