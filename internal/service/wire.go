package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"parlap/internal/graphio"
	"parlap/internal/obs"
	"parlap/internal/solver"
)

// The solve endpoint's wire codec: request bodies are read whole into a
// pooled buffer and decoded by graphio's float-vector codec into the
// SolveRequest document, replies are formatted into a pooled buffer — byte
// for byte what encoding/json writes for the SolveResponse document — and
// written with one Write and an exact Content-Length.

// maxPresizeBody caps how much of a declared Content-Length readBody
// reserves before any of it has arrived; past it the buffer grows with
// the bytes actually read, so a client pays for the memory it costs.
const maxPresizeBody = 1 << 20

// maxPooledBuf keeps one oversized request from pinning its buffer in the
// pool for the process's lifetime.
const maxPooledBuf = 64 << 20

var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// readBody reads the whole request body into buf[:0], capped at
// maxBodyBytes. A declared Content-Length sizes the buffer up front (up to
// maxPresizeBody); one over the cap is refused before anything is read.
func readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	n := r.ContentLength
	if n > maxBodyBytes {
		return buf[:0], &http.MaxBytesError{Limit: maxBodyBytes}
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	buf = buf[:0]
	// +1: the read that sees EOF needs no growth.
	if want := min(n+1, maxPresizeBody); n > 0 && int64(cap(buf)) < want {
		buf = make([]byte, 0, want)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		m, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// writeBodyError maps a body read or decode failure to its response.
func writeBodyError(w http.ResponseWriter, r *http.Request, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		obs.WriteError(w, r, http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes; split the batch across requests", int64(maxBodyBytes))
		return
	}
	obs.WriteError(w, r, http.StatusBadRequest, "bad request body: %v", err)
}

// queryEps reads the optional ?eps= tolerance (0 = the server default).
func queryEps(r *http.Request) (float64, error) {
	raw := r.URL.Query().Get("eps")
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || !(v > 0) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad eps %q", raw)
	}
	return v, nil
}

// decodeSolveBody decodes a solve request body into its right-hand sides
// and tolerance; single says the reply is the single-RHS document.
func decodeSolveBody(body []byte) (bs [][]float64, eps float64, single bool, err error) {
	var req SolveRequest
	if err := decodeSolveRequest(body, &req); err != nil {
		return nil, 0, false, fmt.Errorf("bad request body: %w", err)
	}
	switch {
	case req.B != nil && req.Batch != nil:
		return nil, 0, false, errors.New("set exactly one of b and batch, not both")
	case req.B != nil:
		return [][]float64{req.B}, req.Eps, true, nil
	case req.Batch != nil:
		return req.Batch, req.Eps, false, nil
	default:
		return nil, 0, false, errors.New("set one of b and batch")
	}
}

// decodeSolveRequest decodes a SolveRequest JSON document with the same
// outcome encoding/json (with DisallowUnknownFields) has on it — keys
// matched case-insensitively, a repeated key's last value wins, a null
// leaves eps unchanged and clears b or batch — except that null vector
// entries (which encoding/json reads as 0) and trailing data after the
// object are rejected.
func decodeSolveRequest(data []byte, req *SolveRequest) error {
	r := graphio.NewJSONReader(data)
	if r.Null() {
		return r.End()
	}
	if err := r.Expect('{'); err != nil {
		return err
	}
	for r.Peek() != '}' {
		key, err := r.Key()
		if err != nil {
			return err
		}
		switch {
		case strings.EqualFold(key, "b"):
			req.B = nil
			if !r.Null() {
				req.B, err = r.Vector(nil)
			}
		case strings.EqualFold(key, "batch"):
			req.Batch = nil
			if !r.Null() {
				req.Batch, err = decodeBatch(r)
			}
		case strings.EqualFold(key, "eps"):
			if !r.Null() {
				req.Eps, err = r.Float()
			}
		default:
			return fmt.Errorf("unknown field %q", key)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		if r.Peek() != ',' {
			break
		}
		if err := r.Expect(','); err != nil {
			return err
		}
		if r.Peek() == '}' {
			return r.Expect('"') // a trailing comma: report the missing key
		}
	}
	if err := r.Expect('}'); err != nil {
		return err
	}
	return r.End()
}

// decodeBatch reads an array whose elements are vectors or null.
func decodeBatch(r *graphio.JSONReader) ([][]float64, error) {
	if err := r.Expect('['); err != nil {
		return nil, err
	}
	batch := [][]float64{}
	for r.Peek() != ']' {
		var row []float64
		if !r.Null() {
			var err error
			if row, err = r.Vector(nil); err != nil {
				return nil, fmt.Errorf("row %d: %w", len(batch), err)
			}
		}
		batch = append(batch, row)
		if r.Peek() != ',' {
			break
		}
		if err := r.Expect(','); err != nil {
			return nil, err
		}
		if r.Peek() == ']' {
			return nil, r.Expect('[') // a trailing comma: report the missing row
		}
	}
	return batch, r.Expect(']')
}

// appendSolveJSON appends the SolveResponse document for xs/sts, all but
// its closing brace, so a timings block can still follow.
func appendSolveJSON(dst []byte, xs [][]float64, sts []solver.SolveStats, single bool) []byte {
	if single {
		dst = append(dst, `{"x":`...)
		dst = graphio.AppendVectorRow(dst, xs[0])
		dst = append(dst, `,"stats":`...)
		return appendStatsJSON(dst, sts[0])
	}
	dst = append(dst, `{"xs":[`...)
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = graphio.AppendVectorRow(dst, x)
	}
	dst = append(dst, `],"batch_stats":[`...)
	for i, st := range sts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendStatsJSON(dst, st)
	}
	return append(dst, ']')
}

// appendStatsJSON appends one SolveStatsJSON object.
func appendStatsJSON(dst []byte, st solver.SolveStats) []byte {
	return append(appendStatsFields(append(dst, '{'), st), '}')
}

// appendStatsFields appends the members of a SolveStatsJSON object.
func appendStatsFields(dst []byte, st solver.SolveStats) []byte {
	dst = strconv.AppendInt(append(dst, `"iterations":`...), int64(st.Iterations), 10)
	dst = strconv.AppendBool(append(dst, `,"converged":`...), st.Converged)
	return graphio.AppendFloat(append(dst, `,"residual":`...), st.Residual)
}

// timingsJSON renders the ?debug=timings block.
func timingsJSON(tr *obs.SolveTrace) []byte {
	data, _ := json.Marshal(solveTimingsJSON(tr)) // plain numbers: cannot fail
	return data
}

// writeBody writes a complete 200 JSON reply in one Write.
func writeBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}
