package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The HTTP request pipeline a shard server and the cluster router share:
// request-id adoption or minting, status capture, the route/status counter
// behind a *_http_requests_total series, one structured log line per
// request, and the JSON error envelope every error path returns.

type ridKey struct{}

// RequestID returns the request id a Requests route stored in ctx; empty
// when the call did not come through one.
func RequestID(ctx context.Context) string {
	rid, _ := ctx.Value(ridKey{}).(string)
	return rid
}

// ValidRequestID reports whether an inbound X-Request-ID is safe to adopt:
// bounded length and a conservative charset, since it is echoed into logs,
// headers and error envelopes verbatim.
func ValidRequestID(rid string) bool {
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

type routeCode struct {
	route string
	code  int
}

// Requests wraps handlers with the per-request plumbing and counts the
// finished requests by route and status. All methods are safe for
// concurrent use.
type Requests struct {
	prefix string
	event  string
	log    *slog.Logger
	seq    atomic.Int64

	mu     sync.Mutex
	counts map[routeCode]int64
}

// NewRequests returns a pipeline that mints ids "<prefix>-<seq>" and logs
// each request as event on log.
func NewRequests(prefix, event string, log *slog.Logger) *Requests {
	return &Requests{prefix: prefix, event: event, log: log, counts: make(map[routeCode]int64)}
}

// Route wraps h. A sane inbound X-Request-ID — from the cluster router, or a
// client correlating its own calls — is adopted rather than replaced, so one
// id names the request across every hop's logs; anything else gets a minted
// id. The id is set on the response header, on the inbound header (which a
// proxy forwards) and in the request context. The route name is passed
// explicitly because the Go 1.22 mux does not expose the matched pattern to
// the handler.
func (q *Requests) Route(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-ID")
		if !ValidRequestID(rid) {
			rid = fmt.Sprintf("%s-%06d", q.prefix, q.seq.Add(1))
			r.Header.Set("X-Request-ID", rid)
		}
		r = r.WithContext(context.WithValue(r.Context(), ridKey{}, rid))
		w.Header().Set("X-Request-ID", rid)
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		h(sw, r)
		code := sw.code()
		q.mu.Lock()
		q.counts[routeCode{name, code}]++
		q.mu.Unlock()
		q.log.Info(q.event,
			"request_id", rid,
			"route", name,
			"method", r.Method,
			"path", r.URL.Path,
			"status", code,
			"duration_ms", float64(time.Since(t0).Microseconds())/1000,
		)
	}
}

// WriteCounts emits the finished-request counter family name, one series
// per route and status, ordered by route then status.
func (q *Requests) WriteCounts(e *Expo, name, help string) {
	q.mu.Lock()
	keys := make([]routeCode, 0, len(q.counts))
	counts := make(map[routeCode]int64, len(q.counts))
	for k, v := range q.counts {
		keys = append(keys, k)
		counts[k] = v
	}
	q.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].code < keys[j].code
	})
	e.Header(name, help, "counter")
	for _, k := range keys {
		e.Int(name, []Label{{K: "route", V: k.route}, {K: "code", V: strconv.Itoa(k.code)}}, counts[k])
	}
}

// statusWriter records the status code a handler writes. It forwards Flush
// so streamed responses keep their per-row flushes, and Unwrap so
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

// ErrorResponse is the uniform JSON error envelope, carrying the request id
// so clients and logs can be joined.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// WriteJSON writes v as the JSON body of a status response.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the error envelope with r's request id.
func WriteError(w http.ResponseWriter, r *http.Request, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorResponse{
		Error:     fmt.Sprintf(format, args...),
		RequestID: RequestID(r.Context()),
	})
}
