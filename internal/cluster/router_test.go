package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"parlap/internal/chainio"
	"parlap/internal/service"
)

// Router integration tests: two real service shards sharing a snapshot
// store behind one router. The failover test is the package's reason to
// exist — kill the shard that owns a graph, solve again through the router,
// and the replica must answer from a snapshot restore with the bitwise-
// identical solution.

type testCluster struct {
	router *Router
	front  *httptest.Server
	shards map[string]*httptest.Server
	srvs   map[string]*service.Server
	store  *chainio.DirStore
}

func newTestCluster(t *testing.T, names ...string) *testCluster {
	t.Helper()
	store, err := chainio.NewDirStore(filepath.Join(t.TempDir(), "chains"))
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{
		shards: make(map[string]*httptest.Server),
		srvs:   make(map[string]*service.Server),
		store:  store,
	}
	var nodes []Node
	for _, name := range names {
		srv := service.New(service.Config{
			Workers:         2,
			NodeID:          name,
			Snapshots:       store,
			SnapshotOnBuild: true,
		})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		tc.srvs[name] = srv
		tc.shards[name] = ts
		nodes = append(nodes, Node{Name: name, URL: ts.URL})
	}
	rt, err := NewRouter(Config{
		Nodes:       nodes,
		RegisterKey: service.RegisterKey,
		Probe: ProbeConfig{
			Interval:   50 * time.Millisecond,
			Timeout:    time.Second,
			MaxBackoff: 200 * time.Millisecond,
		},
		Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	tc.router = rt
	tc.front = httptest.NewServer(rt.Handler())
	t.Cleanup(tc.front.Close)
	return tc
}

func postJSON(t *testing.T, url, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, buf.String())
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp
}

// solveBody is a mean-free single right-hand side for an n-vertex graph.
func solveBody(n int) string {
	b := make([]float64, n)
	b[0], b[n-1] = 1, -1
	data, _ := json.Marshal(map[string]any{"b": b})
	return string(data)
}

func TestRouterFailoverWarmRestore(t *testing.T) {
	tc := newTestCluster(t, "shard-a", "shard-b")

	// Register through the router; the body's canonical id decides the shard.
	var reg struct {
		ID string `json:"id"`
	}
	postJSON(t, tc.front.URL+"/graphs", `{"spec":"grid2d:12x12","seed":1}`, &reg)
	if reg.ID == "" {
		t.Fatal("register returned no id")
	}
	owner := tc.router.Ring().Owner(reg.ID).Name
	replica := tc.router.Ring().Order(reg.ID)[1].Name

	// The graph must have landed on the owner, not anywhere else.
	if got := tc.srvs[owner].Health().Graphs; got != 1 {
		t.Fatalf("owner %s caches %d graphs, want 1", owner, got)
	}
	if got := tc.srvs[replica].Health().Graphs; got != 0 {
		t.Fatalf("replica %s caches %d graphs before failover, want 0", replica, got)
	}

	var ref struct {
		X []float64 `json:"x"`
	}
	solveURL := tc.front.URL + "/graphs/" + reg.ID + "/solve"
	postJSON(t, solveURL, solveBody(144), &ref)
	if len(ref.X) != 144 {
		t.Fatalf("solve returned %d entries", len(ref.X))
	}

	// Wait for the owner's write-behind snapshot to publish — the failover
	// replica restores from it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := tc.store.Get(reg.ID); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write-behind snapshot never appeared in the shared store")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Kill the owner and solve again through the router: the request fails
	// over to the replica, which warms the chain from the shared store and
	// answers bit-identically.
	tc.shards[owner].CloseClientConnections()
	tc.shards[owner].Close()
	var failover struct {
		X []float64 `json:"x"`
	}
	postJSON(t, solveURL, solveBody(144), &failover)
	if len(failover.X) != len(ref.X) {
		t.Fatalf("failover solve returned %d entries, want %d", len(failover.X), len(ref.X))
	}
	for i := range ref.X {
		if math.Float64bits(failover.X[i]) != math.Float64bits(ref.X[i]) {
			t.Fatalf("failover solution differs at entry %d: %x vs %x",
				i, math.Float64bits(failover.X[i]), math.Float64bits(ref.X[i]))
		}
	}

	// The answer came from a snapshot restore on the replica, and the
	// router counted the request routed past the dead owner.
	if h := tc.srvs[replica].Health(); h.SnapshotHits < 1 {
		t.Fatalf("replica snapshot_hits = %d, want >= 1", h.SnapshotHits)
	}
	if n := tc.router.counters[owner].retries.Load(); n < 1 {
		t.Fatalf("router retries for dead owner = %d, want >= 1", n)
	}

	// The ring endpoint reports the owner down (ReportFailure marked it the
	// moment the proxy attempt died).
	resp, err := http.Get(tc.front.URL + "/ring?key=" + reg.ID)
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Owner string `json:"owner"`
		Nodes []struct {
			Name  string `json:"name"`
			Alive bool   `json:"alive"`
		} `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Owner != owner {
		t.Fatalf("/ring owner = %s, want %s", info.Owner, owner)
	}
	for _, n := range info.Nodes {
		if n.Name == owner && n.Alive {
			t.Fatalf("/ring still reports dead owner %s alive", owner)
		}
	}

	// The merged list still shows the graph (now cached on the replica).
	var list struct {
		Graphs []string `json:"graphs"`
	}
	resp, err = http.Get(tc.front.URL + "/graphs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Graphs) != 1 || list.Graphs[0] != reg.ID {
		t.Fatalf("merged list = %v, want [%s]", list.Graphs, reg.ID)
	}
}

// TestRouterRequestIDPropagation: a sane client X-Request-ID survives the
// hop — router and shard both adopt it, and it comes back on the response.
func TestRouterRequestIDPropagation(t *testing.T) {
	tc := newTestCluster(t, "solo")
	req, _ := http.NewRequest(http.MethodPost, tc.front.URL+"/graphs",
		strings.NewReader(`{"spec":"grid2d:4x4","seed":1}`))
	req.Header.Set("X-Request-ID", "client-rid-42")
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "client-rid-42" {
		t.Fatalf("X-Request-ID = %q, want the client's id back", got)
	}
	// A garbage id is replaced, not echoed.
	req, _ = http.NewRequest(http.MethodGet, tc.front.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "bad id with spaces")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got == "" || strings.Contains(got, " ") {
		t.Fatalf("unsafe inbound id handled wrong: %q", got)
	}
}

// TestRouterStream: streaming solves proxy through with rows flowing back.
func TestRouterStream(t *testing.T) {
	tc := newTestCluster(t, "solo")
	var reg struct {
		ID string `json:"id"`
	}
	postJSON(t, tc.front.URL+"/graphs", `{"spec":"grid2d:6x6","seed":1}`, &reg)

	n := 36
	var body bytes.Buffer
	for r := 0; r < 3; r++ {
		b := make([]float64, n)
		b[r], b[n-1-r] = 1, -1
		row, _ := json.Marshal(b)
		body.Write(row)
		body.WriteByte('\n')
	}
	resp, err := http.Post(tc.front.URL+"/graphs/"+reg.ID+"/solve/stream",
		"application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	rows := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row struct {
			Row       int  `json:"row"`
			Converged bool `json:"converged"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("row %d: %v: %s", rows, err, sc.Text())
		}
		if row.Row != rows || !row.Converged {
			t.Fatalf("row %d = %+v", rows, row)
		}
		rows++
	}
	if rows != 3 {
		t.Fatalf("stream returned %d rows, want 3", rows)
	}
}

// TestRouterStreamErrorKeepAliveReuse: a stream relay that ends before the
// inbound body is consumed (the shard answers 404, or no shard is reachable)
// must leave the client's keep-alive connection to the router usable — the
// full-duplex handler closes the body on every path. One client connection
// carries every request.
func TestRouterStreamErrorKeepAliveReuse(t *testing.T) {
	tc := newTestCluster(t, "solo")
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	post := func(path, body string) int {
		t.Helper()
		resp, err := client.Post(tc.front.URL+path, "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for round := 0; round < 5; round++ {
		if code := post("/graphs/nope/solve/stream", "[1]\n[2]\n"); code != http.StatusNotFound {
			t.Fatalf("round %d: unknown graph through the router: status %d, want 404", round, code)
		}
	}
	tc.shards["solo"].Close()
	for round := 0; round < 5; round++ {
		if code := post("/graphs/nope/solve/stream", "[1]\n[2]\n"); code != http.StatusBadGateway {
			t.Fatalf("round %d: unreachable shard: status %d, want 502", round, code)
		}
	}
}

// TestRouterAllShardsDown: when no shard is reachable the router answers
// 502 with the JSON error envelope, not a hang or a panic.
func TestRouterAllShardsDown(t *testing.T) {
	tc := newTestCluster(t, "a", "b")
	for _, ts := range tc.shards {
		ts.Close()
	}
	resp, err := http.Post(tc.front.URL+"/graphs/gdead/solve",
		"application/json", strings.NewReader(`{"b":[1,-1]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	var envelope struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error == "" || envelope.RequestID == "" {
		t.Fatalf("bad error envelope: %+v", envelope)
	}
}

// TestRouterBadRegisterBody: a body the shard key cannot be computed from
// is rejected at the router with 400 — it never reaches a shard.
func TestRouterBadRegisterBody(t *testing.T) {
	tc := newTestCluster(t, "solo")
	for _, body := range []string{`{"spec":"nope:1"}`, `not json`, `{}`} {
		resp, err := http.Post(tc.front.URL+"/graphs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if reqs := tc.router.counters["solo"].requests.Load(); reqs != 0 {
		t.Fatalf("bad register bodies reached the shard: %d requests", reqs)
	}
}

// TestRouterMetrics: the exposition carries the per-node series.
func TestRouterMetrics(t *testing.T) {
	tc := newTestCluster(t, "m1")
	postJSON(t, tc.front.URL+"/graphs", `{"spec":"grid2d:4x4","seed":1}`, nil)
	wants := []string{
		`parlap_router_requests_total{node="m1"} 1`,
		`parlap_router_node_up{node="m1"} 1`,
		`parlap_router_retries_total{node="m1"} 0`,
		`parlap_router_http_requests_total{route="register",code="200"} 1`,
	}
	// The route counter is bumped after the register handler returns, which
	// can be after the client has its reply: poll briefly for it.
	var text string
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(tc.front.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		text = buf.String()
		if strings.Contains(text, wants[len(wants)-1]) || time.Now().After(deadline) {
			break
		}
	}
	for _, want := range wants {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
