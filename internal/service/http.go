package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"parlap/internal/gen"
	"parlap/internal/graph"
	"parlap/internal/graphio"
	"parlap/internal/obs"
)

// HTTP/JSON API:
//
//	POST /graphs                      register a graph, build (or reuse) its chain
//	GET  /graphs                      list cached graph ids (MRU first)
//	POST /graphs/{id}/solve           solve one RHS ("b") or a batch ("batch")
//	POST /graphs/{id}/solve/stream    ndjson RHS rows in, ndjson solutions out (see stream.go)
//	GET  /graphs/{id}/stats           per-graph chain + serving statistics
//	GET  /healthz                     service-wide health / cache counters
//	GET  /metrics                     Prometheus text exposition (see metrics.go)
//
// Graph payloads come in the two formats the rest of the repo already
// speaks: a generator spec ("grid2d:64x64", "pa:20000:4", … — gen.FromSpec)
// or a graphio edge list ("u v w" lines, optional "n m" header).

// maxBodyBytes bounds request bodies at 512 MiB — roughly a 64-RHS batch
// on a 400k-vertex graph in JSON. Requests that are legal under MaxBatch ×
// MaxGraphVertices can exceed this; such clients should split the batch
// (the chain cache makes extra solve requests cheap). Oversized bodies get
// an explicit 413, not a generic decode error.
const maxBodyBytes = 1 << 29

// RegisterRequest is the POST /graphs body. Exactly one of Spec or EdgeList
// must be set.
type RegisterRequest struct {
	// Spec is a generator spec string, e.g. "grid2d:64x64" (see gen.FromSpec).
	Spec string `json:"spec,omitempty"`
	// Seed drives random generator families; defaults to 1.
	Seed int64 `json:"seed,omitempty"`
	// EdgeList is a whitespace edge-list document ("u v [w]" lines).
	EdgeList string `json:"edgelist,omitempty"`
}

// RegisterResponse is the POST /graphs reply.
type RegisterResponse struct {
	ID      string  `json:"id"`
	N       int     `json:"n"`
	M       int     `json:"m"`
	Cached  bool    `json:"cached"`
	BuildMS float64 `json:"build_ms"`
	Levels  int     `json:"levels"`
}

// SolveRequest is the POST /graphs/{id}/solve body. Exactly one of B or
// Batch must be set.
type SolveRequest struct {
	B     []float64   `json:"b,omitempty"`
	Batch [][]float64 `json:"batch,omitempty"`
	Eps   float64     `json:"eps,omitempty"`
}

// SolveStatsJSON is the wire form of one solve's statistics.
type SolveStatsJSON struct {
	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
	Residual   float64 `json:"residual"`
}

// SolveResponse is the POST /graphs/{id}/solve reply: X/Stats for a single
// solve, Xs/BatchStats for a batch. Timings appears only when the request
// asked for it with ?debug=timings.
type SolveResponse struct {
	X          []float64        `json:"x,omitempty"`
	Stats      *SolveStatsJSON  `json:"stats,omitempty"`
	Xs         [][]float64      `json:"xs,omitempty"`
	BatchStats []SolveStatsJSON `json:"batch_stats,omitempty"`
	Timings    *SolveTimings    `json:"timings,omitempty"`
}

// SolveTimings is the ?debug=timings block: this request's stage trace in
// milliseconds. The per-level arrays are truncated to the chain depth;
// cheb+forward+back+bottom partition precond_ms (exclusive attribution),
// and pcg_ms is the outer driver net of preconditioning.
type SolveTimings struct {
	TotalMS     float64   `json:"total_ms"`
	QueueMS     float64   `json:"queue_ms"`
	WorkspaceMS float64   `json:"workspace_ms"`
	PCGMS       float64   `json:"pcg_ms"`
	PrecondMS   float64   `json:"precond_ms"`
	BottomMS    float64   `json:"bottom_ms"`
	Levels      int       `json:"levels"`
	ChebMS      []float64 `json:"cheb_ms_per_level"`
	ForwardMS   []float64 `json:"forward_ms_per_level"`
	BackMS      []float64 `json:"back_ms_per_level"`
	// DecodeMS is reading and parsing the request body, EncodeMS formatting
	// the reply; total_ms spans both.
	DecodeMS float64 `json:"decode_ms"`
	EncodeMS float64 `json:"encode_ms"`
}

// solveTimingsJSON renders a trace for the wire.
func solveTimingsJSON(tr *obs.SolveTrace) *SolveTimings {
	toMS := func(ns int64) float64 { return float64(ns) / 1e6 }
	lv := tr.Levels
	if lv > obs.TraceLevels {
		lv = obs.TraceLevels
	}
	out := &SolveTimings{
		TotalMS:     toMS(tr.TotalNS),
		QueueMS:     toMS(tr.QueueNS),
		WorkspaceMS: toMS(tr.WorkspaceNS),
		PCGMS:       toMS(tr.StageNS(obs.StagePCG)),
		PrecondMS:   toMS(tr.PrecondNS),
		BottomMS:    toMS(tr.BottomNS),
		Levels:      tr.Levels,
		ChebMS:      make([]float64, lv),
		ForwardMS:   make([]float64, lv),
		BackMS:      make([]float64, lv),
		DecodeMS:    toMS(tr.DecodeNS),
		EncodeMS:    toMS(tr.EncodeNS),
	}
	for i := 0; i < lv; i++ {
		out.ChebMS[i] = toMS(tr.ChebNS[i])
		out.ForwardMS[i] = toMS(tr.FwdNS[i])
		out.BackMS[i] = toMS(tr.BackNS[i])
	}
	return out
}

// Handler returns the service's HTTP handler. Every route runs through
// s.reqs (obs.Requests), which adopts or mints the request id, counts the
// request in /metrics, and writes one "http_request" log line; every error
// path returns obs.ErrorResponse, the JSON envelope carrying that id.
// Unmatched paths get the envelope from the catch-all (which also means a
// wrong-method request gets a JSON 404 rather than the mux's plain-text 405
// — the envelope is the API's contract).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /graphs", s.reqs.Route("register", s.handleRegister))
	mux.HandleFunc("GET /graphs", s.reqs.Route("list", s.handleList))
	mux.HandleFunc("POST /graphs/{id}/solve", s.reqs.Route("solve", s.handleSolve))
	mux.HandleFunc("POST /graphs/{id}/solve/stream", s.reqs.Route("solve_stream", s.handleSolveStream))
	mux.HandleFunc("GET /graphs/{id}/stats", s.reqs.Route("stats", s.handleStats))
	mux.HandleFunc("GET /healthz", s.reqs.Route("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.reqs.Route("metrics", s.handleMetrics))
	mux.HandleFunc("/", s.reqs.Route("not_found", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteError(w, r, http.StatusNotFound, "no such route: %s %s", r.Method, r.URL.Path)
	}))
	return mux
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeBodyError(w, r, err)
		return false
	}
	return true
}

// RegisterKey computes the canonical graph id a POST /graphs body would
// register under, without registering anything. This is the cluster
// router's shard key: the router materializes the graph from the body with
// exactly the decode path handleRegister uses, so the request routes to the
// node whose cache (and whose snapshot) the id will live in.
func RegisterKey(body []byte) (string, error) {
	var req RegisterRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return "", err
	}
	g, _, err := graphFromRequest(&req)
	if err != nil {
		return "", err
	}
	if g.N == 0 {
		return "", errors.New("empty graph")
	}
	return GraphID(g), nil
}

// graphFromRequest materializes the request's graph payload.
func graphFromRequest(req *RegisterRequest) (*graph.Graph, string, error) {
	switch {
	case req.Spec != "" && req.EdgeList != "":
		return nil, "", errors.New("set exactly one of spec and edgelist, not both")
	case req.Spec != "":
		seed := req.Seed
		if seed == 0 {
			seed = 1
		}
		g, err := gen.FromSpec(req.Spec, seed)
		if err != nil {
			return nil, "", err
		}
		return g, describeSource(fmt.Sprintf("spec:%s seed:%d", req.Spec, seed)), nil
	case req.EdgeList != "":
		g, err := graphio.ReadEdgeList(strings.NewReader(req.EdgeList))
		if err != nil {
			return nil, "", err
		}
		return g, describeSource(fmt.Sprintf("edgelist(n=%d m=%d)", g.N, g.M())), nil
	default:
		return nil, "", errors.New("set one of spec and edgelist")
	}
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	g, source, err := graphFromRequest(&req)
	if err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, "bad graph payload: %v", err)
		return
	}
	if g.N == 0 {
		obs.WriteError(w, r, http.StatusBadRequest, "empty graph")
		return
	}
	e, cached, err := s.Register(r.Context(), g, source)
	if err != nil {
		var tl *TooLargeError
		switch {
		case errors.As(err, &tl):
			obs.WriteError(w, r, http.StatusBadRequest, "%v", err)
		case errors.Is(err, ErrBuildAborted):
			obs.WriteError(w, r, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, r.Context().Err()) && r.Context().Err() != nil:
			obs.WriteError(w, r, http.StatusServiceUnavailable, "request expired in build queue: %v", err)
		default:
			obs.WriteError(w, r, http.StatusInternalServerError, "chain build failed: %v", err)
		}
		return
	}
	// e.levels, not e.solver.Chain.Depth(): the entry may already have been
	// evicted and its solver reclaimed by the time the response is written.
	obs.WriteJSON(w, http.StatusOK, RegisterResponse{
		ID: e.id, N: e.n, M: e.m, Cached: cached,
		BuildMS: float64(e.buildDur.Microseconds()) / 1000,
		Levels:  e.levels,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, map[string][]string{"graphs": s.List()})
}

// handleSolve serves POST /graphs/{id}/solve (the codec is in wire.go).
// The request's trace covers the whole exchange: reading and decoding the
// body, the solve, and formatting the reply.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	tStart := time.Now()
	buf := getBuf()
	defer putBuf(buf)
	var err error
	if *buf, err = readBody(w, r, *buf); err != nil {
		writeBodyError(w, r, err)
		return
	}
	bs, eps, single, err := decodeSolveBody(*buf)
	if err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	decodeNS := time.Since(tStart).Nanoseconds()
	var tr obs.SolveTrace
	e, xs, sts, err := s.solveTraced(r.Context(), r.PathValue("id"), bs, eps, &tr)
	if err != nil {
		var nf *NotFoundError
		switch {
		case errors.As(err, &nf):
			obs.WriteError(w, r, http.StatusNotFound, "%v", err)
		case errors.Is(err, ErrBuildAborted):
			obs.WriteError(w, r, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, r.Context().Err()) && r.Context().Err() != nil:
			obs.WriteError(w, r, http.StatusServiceUnavailable, "request expired in admission queue: %v", err)
		default:
			obs.WriteError(w, r, http.StatusBadRequest, "%v", err)
		}
		return
	}
	// The request buffer is free again: the reply is formatted into it.
	tEncode := time.Now()
	out := appendSolveJSON((*buf)[:0], xs, sts, single)
	tr.DecodeNS, tr.EncodeNS = decodeNS, time.Since(tEncode).Nanoseconds()
	tr.TotalNS = time.Since(tStart).Nanoseconds()
	s.observeSolve(e, &tr, len(xs))
	if r.URL.Query().Get("debug") == "timings" {
		out = append(append(out, `,"timings":`...), timingsJSON(&tr)...)
	}
	*buf = append(out, "}\n"...)
	writeBody(w, *buf)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.Stats(r.Context(), r.PathValue("id"))
	if err != nil {
		var nf *NotFoundError
		if errors.As(err, &nf) {
			obs.WriteError(w, r, http.StatusNotFound, "%v", err)
			return
		}
		obs.WriteError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	obs.WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, s.Health())
}
