package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"parlap/internal/graphio"
	"parlap/internal/matrix"
	"parlap/internal/obs"
	"parlap/internal/solver"
)

// The streaming batch path: very large right-hand-side batches arrive as
// ndjson rows (one JSON array per line), are chunked into SolveBatch
// windows that each pass the same admission control as a discrete solve
// request, and the solutions stream back as ndjson rows in input order.
// A 100k-row batch therefore never holds more than one window of RHS
// vectors in memory and never monopolizes the solve slots — between
// windows, waiting requests for other graphs get their turn (the admission
// sharding applies per window). Row arithmetic is the batched kernels',
// which are bitwise identical to independent Solve calls per column.

// ErrStreamAbort wraps a row-level failure that ends a stream after rows
// may already have been emitted.
var ErrStreamAbort = errors.New("service: stream aborted")

// SolveStream drains RHS rows from next (io.EOF ends the stream), solves
// them against graph id in admission-controlled windows of the configured
// StreamWindow size, and hands each solution to emit in input order.
// It returns the number of rows fully processed. Errors from next or emit
// abort the stream; rows already emitted stay emitted.
func (s *Server) SolveStream(ctx context.Context, id string, eps float64,
	next func() ([]float64, error), emit func(row int, x []float64, st solver.SolveStats) error) (int, error) {
	rows, err := s.solveStream(ctx, id, eps, next, emit)
	if err != nil {
		s.met.solveErrors.Add(1)
	}
	return rows, err
}

func (s *Server) solveStream(ctx context.Context, id string, eps float64,
	next func() ([]float64, error), emit func(row int, x []float64, st solver.SolveStats) error) (int, error) {
	// The reference spans the whole stream, not just one window: between
	// windows the entry may be evicted (it no longer serves lookups), but
	// its solver must stay reclaimable-only-after the stream finishes.
	e, err := s.lookupOrRestoreRef(ctx, id)
	if err != nil {
		return 0, err
	}
	defer s.release(e)
	if eps <= 0 {
		eps = s.cfg.DefaultEps
	}
	window := s.cfg.StreamWindow
	done := 0
	bs := make([][]float64, 0, window)
	// The window's contiguous RHS/solution blocks and per-row stats persist
	// across windows: SolveBlockTraced reshapes them in place, so a long
	// stream allocates its solve scratch once, on the first window, and the
	// per-window steady state stays allocation-free inside the solver.
	var rhsBlk, outBlk matrix.Block
	var stsBuf []solver.SolveStats
	for {
		// Gather one window.
		bs = bs[:0]
		var streamErr error
		var decodeNS int64
		for len(bs) < window {
			tRow := time.Now()
			b, err := next()
			decodeNS += time.Since(tRow).Nanoseconds()
			if err == io.EOF {
				streamErr = io.EOF
				break
			}
			if err != nil {
				return done, fmt.Errorf("%w: row %d: %v", ErrStreamAbort, done+len(bs)+1, err)
			}
			if len(b) != e.n {
				return done, fmt.Errorf("%w: row %d has %d entries, graph has %d vertices",
					ErrStreamAbort, done+len(bs)+1, len(b), e.n)
			}
			bs = append(bs, b)
		}
		if len(bs) > 0 {
			// Each window is one admitted solve: the per-graph sharding and
			// the worker-budget split apply exactly as for a discrete batch —
			// and each window records one trace (queue wait included), so a
			// long stream shows up in the latency histograms window by window.
			tWin := time.Now()
			var tr obs.SolveTrace
			rhsBlk.Reshape(e.n, len(bs))
			for c, b := range bs {
				rhsBlk.SetCol(c, b)
			}
			queueNS, sts, err := s.admittedSolve(ctx, e, func(opt solver.Options) []solver.SolveStats {
				return e.solver.SolveBlockTraced(&rhsBlk, &outBlk, eps, opt, &tr, stsBuf)
			})
			if err != nil {
				return done, err
			}
			stsBuf = sts[:0]
			s.met.streamWindows.Add(1)
			s.met.streamRows.Add(int64(len(bs)))
			tEncode := time.Now()
			emitted, emitErr := 0, error(nil)
			for ; emitted < len(sts) && emitErr == nil; emitted++ {
				// Fresh vector per row: emit callbacks may retain it past the
				// next window's reuse of the block.
				x := make([]float64, e.n)
				outBlk.ColInto(emitted, x)
				emitErr = emit(done+emitted, x, sts[emitted])
			}
			tr.QueueNS, tr.DecodeNS, tr.EncodeNS = queueNS, decodeNS, time.Since(tEncode).Nanoseconds()
			tr.TotalNS = decodeNS + time.Since(tWin).Nanoseconds()
			s.observeSolve(e, &tr, len(bs))
			if emitErr != nil {
				row := done + emitted - 1
				return row, fmt.Errorf("%w: emit row %d: %v", ErrStreamAbort, row, emitErr)
			}
			done += len(bs)
		}
		if streamErr == io.EOF {
			return done, nil
		}
		if err := ctx.Err(); err != nil {
			return done, err
		}
	}
}

// streamErrorRow ends a broken stream in-band (the HTTP status is already
// committed once rows have been flushed). It carries the same request id as
// the error envelope and the X-Request-ID header, so a truncated stream can
// be joined to the server's request log.
type streamErrorRow struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
	// Rows is how many solution rows were emitted before the failure.
	Rows int `json:"rows_emitted"`
}

// handleSolveStream serves POST /graphs/{id}/solve/stream: ndjson RHS rows
// in, ndjson solution rows out, windowed through the admission-controlled
// batch path. eps comes from the ?eps= query parameter.
func (s *Server) handleSolveStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	eps, err := queryEps(r)
	if err != nil {
		obs.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	// The stream interleaves reading RHS rows with writing solution rows on
	// one HTTP/1.x connection, which Go serves half-duplex by default: the
	// first response write closes the unread request body (clients sending
	// Expect: 100-continue, like curl, then break on the second window).
	// Full duplex keeps the body readable; on HTTP/2 (inherently full
	// duplex) the call reports unsupported and is safely ignored.
	//
	// Everything that can be rejected from the URL alone was rejected above,
	// before the switch. From here on, every return — unknown graph, a bad
	// first row, a mid-stream abort — must leave no unread body behind: in
	// full-duplex mode the server no longer drains it before the response,
	// and when its own post-handler close then reads to EOF it re-arms the
	// connection's background read just before the keep-alive loop reads the
	// next request, panicking the connection ("invalid concurrent Body.Read
	// call"). Closing here, inside the handler, drains up to the server's
	// 256 KiB post-handler allowance and otherwise marks the connection
	// not-for-reuse; either way the next request is safe.
	_ = http.NewResponseController(w).EnableFullDuplex()
	defer r.Body.Close()
	// Row length is validated against the graph's vertex count inside
	// SolveStream; the scanner only bounds row bytes here.
	sc := graphio.NewVectorScanner(r.Body, 0, s.cfg.MaxStreamRowBytes)
	flusher, _ := w.(http.Flusher)
	headerSent := false
	var line []byte
	// One solution row on the wire: the row index it answers, the solution
	// vector and its statistics, {"row":…,"x":[…],"iterations":…,
	// "converged":…,"residual":…}, newline-terminated.
	emit := func(row int, x []float64, st solver.SolveStats) error {
		if !headerSent {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			headerSent = true
		}
		line = strconv.AppendInt(append(line[:0], `{"row":`...), int64(row), 10)
		line = graphio.AppendVectorRow(append(line, `,"x":`...), x)
		line = append(appendStatsFields(append(line, ','), st), "}\n"...)
		_, err := w.Write(line)
		if err == nil && flusher != nil {
			flusher.Flush()
		}
		return err
	}
	rows, err := s.SolveStream(r.Context(), id, eps, sc.Next, emit)
	if err == nil {
		if !headerSent {
			// Zero-row stream: still a success, with an empty body.
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		return
	}
	if headerSent {
		// Mid-stream failure: the status line is gone; report in-band.
		_ = json.NewEncoder(w).Encode(streamErrorRow{
			Error:     err.Error(),
			RequestID: obs.RequestID(r.Context()),
			Rows:      rows,
		})
		return
	}
	var nf *NotFoundError
	switch {
	case errors.As(err, &nf):
		obs.WriteError(w, r, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrBuildAborted):
		obs.WriteError(w, r, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, r.Context().Err()) && r.Context().Err() != nil:
		obs.WriteError(w, r, http.StatusServiceUnavailable, "request expired: %v", err)
	default:
		obs.WriteError(w, r, http.StatusBadRequest, "%v", err)
	}
}
