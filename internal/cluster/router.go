package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"parlap/internal/obs"
)

// Config assembles a Router.
type Config struct {
	// Nodes is the static shard list. Required, non-empty.
	Nodes []Node
	// VNodes is the virtual nodes per shard on the ring (0 → 64).
	VNodes int
	// RegisterKey maps a POST /graphs body to the canonical graph id that
	// shards it — the same id the owning node will answer with, so a graph
	// registers on exactly the node its later solves route to. Required.
	RegisterKey func(body []byte) (string, error)
	// RetryBufferBytes caps how large a request body the router buffers to
	// make it replayable on a failover node. Bodies over the cap are
	// forwarded streaming to a single node with no retry. 0 → 8 MiB.
	RetryBufferBytes int64
	// Probe tunes the health prober.
	Probe ProbeConfig
	// Client performs proxy and probe requests. Nil → a client with no
	// overall timeout (streams must be allowed to run; probes carry their
	// own per-request timeout).
	Client *http.Client
	// Logger receives structured router logs. Nil → slog.Default().
	Logger *slog.Logger
}

// nodeCounters is the per-node datapath telemetry.
type nodeCounters struct {
	requests atomic.Int64 // proxy attempts sent to this node
	errors   atomic.Int64 // attempts that died in transport
	retries  atomic.Int64 // requests routed PAST this node: skipped while
	// marked down, or retried elsewhere after a transport failure here
}

// Router is the cluster's front door: it owns a Ring and a Prober and
// reverse-proxies each request to the shard that owns its graph, failing
// over along the ring's deterministic order when the owner is unreachable.
// Only transport-level failures (refused connections, resets, timeouts)
// trigger failover; an HTTP error from a live node is the answer, not a
// reason to ask someone else.
type Router struct {
	ring   *Ring
	prober *Prober
	cfg    Config
	client *http.Client
	log    *slog.Logger
	start  time.Time

	counters map[string]*nodeCounters
	reqs     *obs.Requests // request ids, route/status counter, request log
}

// NewRouter validates cfg, builds the ring, and starts the health prober.
// Callers must Close the router to stop probing.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.RegisterKey == nil {
		return nil, fmt.Errorf("cluster: Config.RegisterKey is required")
	}
	ring, err := NewRing(cfg.Nodes, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if cfg.RetryBufferBytes <= 0 {
		cfg.RetryBufferBytes = 8 << 20
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	rt := &Router{
		ring:     ring,
		prober:   NewProber(ring.Nodes(), cfg.Probe, client, log),
		cfg:      cfg,
		client:   client,
		log:      log,
		start:    time.Now(),
		counters: make(map[string]*nodeCounters, len(cfg.Nodes)),
		reqs:     obs.NewRequests(fmt.Sprintf("rtr%d", time.Now().UnixNano()%1e9), "router_request", log),
	}
	for _, n := range ring.Nodes() {
		rt.counters[n.Name] = &nodeCounters{}
	}
	rt.prober.Start()
	return rt, nil
}

// Close stops the health prober.
func (rt *Router) Close() { rt.prober.Stop() }

// Prober exposes the router's health prober (tests and /healthz).
func (rt *Router) Prober() *Prober { return rt.prober }

// Ring exposes the router's ring.
func (rt *Router) Ring() *Ring { return rt.ring }

// Handler returns the router's HTTP handler. Graph routes are proxied; the
// router answers /healthz, /metrics and /ring itself.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /graphs", rt.reqs.Route("register", rt.handleRegister))
	mux.HandleFunc("GET /graphs", rt.reqs.Route("list", rt.handleListMerge))
	mux.HandleFunc("/graphs/{id}", rt.reqs.Route("graph", rt.handleGraph))
	mux.HandleFunc("/graphs/{id}/{rest...}", rt.reqs.Route("graph", rt.handleGraph))
	mux.HandleFunc("GET /healthz", rt.reqs.Route("healthz", rt.handleHealthz))
	mux.HandleFunc("GET /metrics", rt.reqs.Route("metrics", rt.handleMetrics))
	mux.HandleFunc("GET /ring", rt.reqs.Route("ring", rt.handleRing))
	mux.HandleFunc("/", rt.reqs.Route("not_found", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteError(w, r, http.StatusNotFound, "no such route: %s %s", r.Method, r.URL.Path)
	}))
	return mux
}

// --- proxying ---

// readForRetry reads up to the retry buffer cap from body. If the body fits,
// it is fully buffered and replayable on a failover node; if not, the
// buffered prefix plus the unread remainder must be forwarded as a one-shot
// stream.
func (rt *Router) readForRetry(body io.Reader) (buf []byte, replayable bool, err error) {
	buf, err = io.ReadAll(io.LimitReader(body, rt.cfg.RetryBufferBytes+1))
	if err != nil {
		return nil, false, err
	}
	return buf, int64(len(buf)) <= rt.cfg.RetryBufferBytes, nil
}

// hopByHop lists the connection-scoped headers a proxy must not forward.
var hopByHop = []string{
	"Connection", "Proxy-Connection", "Keep-Alive", "Proxy-Authenticate",
	"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

func copyProxyHeaders(dst, src http.Header) {
	for k, vs := range src {
		dst[k] = append([]string(nil), vs...)
	}
	for _, k := range hopByHop {
		dst.Del(k)
	}
}

// candidates picks the attempt order for key: live nodes along the ring's
// failover order, counting each skipped-down node as a request routed past
// it. When every node looks down the full order is used anyway — the prober
// may simply be behind, and a refused connection tells us no slower than a
// skipped attempt would.
func (rt *Router) candidates(key string) []Node {
	order := rt.ring.Order(key)
	live := make([]Node, 0, len(order))
	for _, n := range order {
		if rt.prober.Alive(n.Name) {
			live = append(live, n)
		}
	}
	if len(live) == 0 {
		return order
	}
	if len(live) < len(order) {
		for _, n := range order {
			if !rt.prober.Alive(n.Name) {
				rt.counters[n.Name].retries.Add(1)
			} else {
				break // only nodes skipped before the first live one were routed past
			}
		}
	}
	return live
}

// proxy forwards the request to the first reachable candidate. body is the
// buffered request body (nil for bodyless methods); replayable says whether
// a failed attempt may be retried on the next candidate. extra is appended
// to r.Body when the body did not fit the retry buffer.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, key string, body []byte, replayable bool, extra io.Reader) {
	nodes := rt.candidates(key)
	var lastErr error
	var lastNode string
	for i, n := range nodes {
		c := rt.counters[n.Name]
		var rdr io.Reader
		var clen int64
		if body != nil {
			rdr, clen = bytes.NewReader(body), int64(len(body))
			if extra != nil {
				rdr, clen = io.MultiReader(bytes.NewReader(body), extra), -1
			}
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, n.URL+r.URL.RequestURI(), rdr)
		if err != nil {
			obs.WriteError(w, r, http.StatusInternalServerError, "building upstream request: %v", err)
			return
		}
		copyProxyHeaders(req.Header, r.Header)
		req.ContentLength = clen
		c.requests.Add(1)
		resp, err := rt.client.Do(req)
		if err != nil {
			c.errors.Add(1)
			rt.prober.ReportFailure(n.Name, err)
			lastErr, lastNode = err, n.Name
			if r.Context().Err() != nil {
				break // the client went away; retrying is noise
			}
			if replayable && i+1 < len(nodes) {
				c.retries.Add(1)
				rt.log.Warn("proxy_failover",
					"request_id", r.Header.Get("X-Request-ID"),
					"from", n.Name, "to", nodes[i+1].Name, "err", err)
				continue
			}
			break
		}
		rt.relay(w, resp)
		return
	}
	obs.WriteError(w, r, http.StatusBadGateway,
		"upstream %s unreachable: %v", lastNode, lastErr)
}

// relay copies the upstream response through, flushing after every chunk so
// streamed ndjson rows reach the client as the shard emits them.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	copyProxyHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// --- handlers ---

// maxRegisterBytes matches the shards' own request-body cap: a register
// body must be read in full here regardless of the retry buffer, because
// the shard key is a hash of the graph it carries.
const maxRegisterBytes = 1 << 29

// handleRegister shards POST /graphs by the canonical id of the graph in
// the body — computed here with the same hash the owning node will answer
// with — and proxies with failover (registration is idempotent: re-sending
// the same graph is a cache hit, not a duplicate). The body is always fully
// buffered (the key needs it), so registers are always replayable.
func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRegisterBytes+1))
	if err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	if len(body) > maxRegisterBytes {
		obs.WriteError(w, r, http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", int64(maxRegisterBytes))
		return
	}
	key, err := rt.cfg.RegisterKey(body)
	if err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, "bad graph payload: %v", err)
		return
	}
	rt.proxy(w, r, key, body, true, nil)
}

// handleGraph shards /graphs/{id}/... by the id in the path. Bodyless
// methods and solve bodies that fit the retry buffer fail over; streaming
// solves are pinned to one node for the connection's lifetime.
func (rt *Router) handleGraph(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if r.Method == http.MethodGet || r.Method == http.MethodHead || r.Body == nil || r.Body == http.NoBody {
		rt.proxy(w, r, id, nil, true, nil)
		return
	}
	if r.PathValue("rest") == "solve/stream" {
		// Full duplex: the inbound body must stay readable while response
		// rows flow back. The server then stops draining an unread body
		// itself, and one left unread when the handler returns panics the
		// reused keep-alive connection on its next request. The upstream
		// transport closes the body on every path that reaches client.Do
		// (audited, locked by TestRouterStreamErrorKeepAliveReuse); the
		// close here covers the returns before it. Closing drains a bounded
		// remainder or marks the connection not-for-reuse.
		_ = http.NewResponseController(w).EnableFullDuplex()
		defer r.Body.Close()
		rt.proxyStream(w, r, id)
		return
	}
	body, replayable, err := rt.readForRetry(r.Body)
	if err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	if !replayable {
		rt.proxy(w, r, id, body, false, r.Body)
		return
	}
	rt.proxy(w, r, id, body, true, nil)
}

// proxyStream forwards a streaming solve without buffering: the request body
// flows to the shard as the client produces it, so there is nothing to
// replay and no failover — the stream is pinned to the first live candidate.
func (rt *Router) proxyStream(w http.ResponseWriter, r *http.Request, key string) {
	nodes := rt.candidates(key)
	n := nodes[0]
	c := rt.counters[n.Name]
	req, err := http.NewRequestWithContext(r.Context(), r.Method, n.URL+r.URL.RequestURI(), r.Body)
	if err != nil {
		obs.WriteError(w, r, http.StatusInternalServerError, "building upstream request: %v", err)
		return
	}
	copyProxyHeaders(req.Header, r.Header)
	req.ContentLength = -1
	c.requests.Add(1)
	resp, err := rt.client.Do(req)
	if err != nil {
		c.errors.Add(1)
		rt.prober.ReportFailure(n.Name, err)
		obs.WriteError(w, r, http.StatusBadGateway, "upstream %s unreachable: %v", n.Name, err)
		return
	}
	rt.relay(w, resp)
}

// handleListMerge answers GET /graphs by asking every live node and merging:
// the cluster's cached-graph list is the union of the shards'.
func (rt *Router) handleListMerge(w http.ResponseWriter, r *http.Request) {
	seen := make(map[string]bool)
	var merged []string
	asked := 0
	for _, n := range rt.ring.Nodes() {
		if !rt.prober.Alive(n.Name) {
			continue
		}
		c := rt.counters[n.Name]
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, n.URL+"/graphs", nil)
		if err != nil {
			continue
		}
		req.Header.Set("X-Request-ID", r.Header.Get("X-Request-ID"))
		c.requests.Add(1)
		resp, err := rt.client.Do(req)
		if err != nil {
			c.errors.Add(1)
			rt.prober.ReportFailure(n.Name, err)
			continue
		}
		var page struct {
			Graphs []string `json:"graphs"`
		}
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&page)
		resp.Body.Close()
		if err != nil {
			continue
		}
		asked++
		for _, id := range page.Graphs {
			if !seen[id] {
				seen[id] = true
				merged = append(merged, id)
			}
		}
	}
	if asked == 0 {
		obs.WriteError(w, r, http.StatusBadGateway, "no shard reachable")
		return
	}
	sort.Strings(merged)
	if merged == nil {
		merged = []string{}
	}
	obs.WriteJSON(w, http.StatusOK, map[string][]string{"graphs": merged})
}

// ringInfo is the GET /ring reply.
type ringInfo struct {
	Key   string       `json:"key,omitempty"`
	Owner string       `json:"owner,omitempty"`
	Order []string     `json:"order,omitempty"`
	Nodes []NodeStatus `json:"nodes"`
}

// handleRing reports ring placement: without a key, just node health; with
// ?key=<graph id>, the owner and full failover order for that key.
func (rt *Router) handleRing(w http.ResponseWriter, r *http.Request) {
	info := ringInfo{Nodes: rt.prober.Status()}
	sort.Slice(info.Nodes, func(i, j int) bool { return info.Nodes[i].Name < info.Nodes[j].Name })
	if key := r.URL.Query().Get("key"); key != "" {
		info.Key = key
		order := rt.ring.Order(key)
		info.Owner = order[0].Name
		for _, n := range order {
			info.Order = append(info.Order, n.Name)
		}
	}
	obs.WriteJSON(w, http.StatusOK, info)
}

// routerHealth is the GET /healthz reply.
type routerHealth struct {
	Status    string       `json:"status"`
	UptimeSec float64      `json:"uptime_seconds"`
	Nodes     []NodeStatus `json:"nodes"`
}

// handleHealthz: the router is "ok" while at least one shard is believed
// alive, "degraded" otherwise (it still serves — the prober may be wrong).
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	nodes := rt.prober.Status()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	status := "degraded"
	for _, n := range nodes {
		if n.Alive {
			status = "ok"
			break
		}
	}
	obs.WriteJSON(w, http.StatusOK, routerHealth{
		Status:    status,
		UptimeSec: time.Since(rt.start).Seconds(),
		Nodes:     nodes,
	})
}

// handleMetrics exposes the router's own counters in the same hand-rolled
// Prometheus text format the shards use; series are ordered by node name so
// scrapes are deterministic.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	nodes := rt.ring.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e := obs.NewExpo(w)
	e.Header("parlap_router_uptime_seconds", "Seconds since the router started.", "gauge")
	e.Sample("parlap_router_uptime_seconds", nil, time.Since(rt.start).Seconds())

	e.Header("parlap_router_requests_total", "Proxy attempts sent to each node.", "counter")
	for _, n := range nodes {
		e.Int("parlap_router_requests_total", []obs.Label{{K: "node", V: n.Name}}, rt.counters[n.Name].requests.Load())
	}
	e.Header("parlap_router_proxy_errors_total", "Proxy attempts that failed in transport, by node.", "counter")
	for _, n := range nodes {
		e.Int("parlap_router_proxy_errors_total", []obs.Label{{K: "node", V: n.Name}}, rt.counters[n.Name].errors.Load())
	}
	e.Header("parlap_router_retries_total", "Requests routed past a node: skipped while down or failed over after a transport error.", "counter")
	for _, n := range nodes {
		e.Int("parlap_router_retries_total", []obs.Label{{K: "node", V: n.Name}}, rt.counters[n.Name].retries.Load())
	}
	e.Header("parlap_router_node_up", "Prober's current belief about each node (1 alive, 0 down).", "gauge")
	for _, n := range nodes {
		up := int64(0)
		if rt.prober.Alive(n.Name) {
			up = 1
		}
		e.Int("parlap_router_node_up", []obs.Label{{K: "node", V: n.Name}}, up)
	}

	rt.reqs.WriteCounts(e, "parlap_router_http_requests_total", "Finished router HTTP requests by route and status.")
	if err := e.Flush(); err != nil {
		rt.log.Warn("metrics_write_failed", "err", err)
	}
}
