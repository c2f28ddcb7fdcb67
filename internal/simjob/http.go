package simjob

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bow/internal/trace"
)

// SimulateResponse is the envelope POST /simulate answers with. A
// drained worker answers Interrupted with the resumable checkpoint
// instead of a result; the coordinator re-submits the spec with
// FromCheckpoint set on another worker.
type SimulateResponse struct {
	Cached string    `json:"cached,omitempty"`
	Result JobResult `json:"result"`

	Interrupted     bool   `json:"interrupted,omitempty"`
	Checkpoint      []byte `json:"checkpoint,omitempty"`
	CheckpointCycle int64  `json:"checkpointCycle,omitempty"`
}

// Server is the HTTP interface cmd/bowd serves (and the one cluster
// workers are addressed through). Beyond routing it tracks the
// HTTP-level gauges the cluster coordinator's load-aware routing
// consumes — per-endpoint request counts and an in-flight gauge — and
// owns the liveness/readiness split: /healthz answers as long as the
// process is up, while /readyz turns 503 once draining starts, so a
// coordinator stops routing to a worker that is shutting down before
// its listener actually closes.
//
// Requests carrying an X-Bow-Trace-Id header get their trace ID
// threaded into the job context, an http-stage span recorded per
// simulate call, and their spans served back on GET /spans?trace=ID.
//
//	POST /simulate       JobSpec JSON   -> SimulateResponse
//	POST /sweep          SweepSpec JSON -> SweepResult
//	GET  /result/{hash}  cached result envelope for a spec hash
//	                     (peer-to-peer cache fill; 404 when absent,
//	                     400 when hash is not a spec hash)
//	GET  /healthz        liveness
//	GET  /readyz         readiness (503 while draining)
//	GET  /metrics   Metrics JSON (engine + HTTP gauges); Prometheus
//	                text format when the Accept header asks for
//	                text/plain
//	GET  /spans     recorded spans, ?trace=ID filters to one trace
type Server struct {
	engine   *Engine
	mux      *http.ServeMux
	draining atomic.Bool
	inflight atomic.Int64
	// peerServed counts /result/{hash} requests answered with a cached
	// envelope — the serving side of peer-to-peer cache fill.
	peerServed atomic.Int64

	reqMu    sync.Mutex
	requests map[string]int64
}

// NewServer builds the HTTP interface around an engine.
func NewServer(e *Engine) *Server {
	s := &Server{
		engine:   e,
		mux:      http.NewServeMux(),
		requests: make(map[string]int64),
	}
	s.mux.HandleFunc("/simulate", func(w http.ResponseWriter, r *http.Request) {
		if !RequireMethod(w, r, http.MethodPost) {
			return
		}
		var spec JobSpec
		if !DecodeBody(w, r, &spec) {
			return
		}
		traceID := r.Header.Get(trace.HeaderTraceID)
		ctx := trace.ContextWithID(r.Context(), traceID)
		start := time.Now()
		out, err := e.Do(ctx, spec)
		span := trace.Span{
			TraceID:     traceID,
			Hop:         trace.HopWorker,
			Stage:       trace.StageHTTP,
			StartMicros: start.UnixMicro(),
			DurMicros:   time.Since(start).Microseconds(),
		}
		if err != nil {
			span.Err = err.Error()
			e.Spans().Record(span)
			HTTPError(w, http.StatusBadRequest, err)
			return
		}
		span.Job = out.Hash
		e.Spans().Record(span)
		WriteJSON(w, SimulateResponse{
			Cached: out.Cached, Result: out.Summary,
			Interrupted: out.Interrupted, Checkpoint: out.Checkpoint,
			CheckpointCycle: out.CheckpointCycle,
		})
	})
	s.mux.HandleFunc("/sweep", func(w http.ResponseWriter, r *http.Request) {
		if !RequireMethod(w, r, http.MethodPost) {
			return
		}
		var sw SweepSpec
		if !DecodeBody(w, r, &sw) {
			return
		}
		ctx := trace.ContextWithID(r.Context(), r.Header.Get(trace.HeaderTraceID))
		res, err := e.RunSweep(ctx, sw)
		if err != nil {
			HTTPError(w, http.StatusBadRequest, err)
			return
		}
		WriteJSON(w, res)
	})
	s.mux.HandleFunc("/result/", func(w http.ResponseWriter, r *http.Request) {
		if !RequireMethod(w, r, http.MethodGet) {
			return
		}
		hash := strings.TrimPrefix(r.URL.Path, "/result/")
		if !validHash(hash) {
			HTTPError(w, http.StatusBadRequest, fmt.Errorf("malformed spec hash %q", hash))
			return
		}
		raw, ok := e.Cache().Peek(hash)
		if !ok {
			HTTPError(w, http.StatusNotFound, fmt.Errorf("no cached result for %s", hash))
			return
		}
		s.peerServed.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(raw)
	})
	s.mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		if !RequireMethod(w, r, http.MethodGet) {
			return
		}
		WriteJSON(w, e.Spans().ByTrace(r.URL.Query().Get("trace")))
	})
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !RequireMethod(w, r, http.MethodGet) {
			return
		}
		WriteJSON(w, map[string]any{"status": "ok", "workers": e.Workers()})
	})
	s.mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		ServeReadyz(w, r, s.draining.Load())
	})
	s.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		ServeMetrics(w, r, s.WritePrometheus, func() any { return s.Metrics() })
	})
	return s
}

// ServeHTTP counts the request against its endpoint and the in-flight
// gauge, then dispatches. The gauge decrement is deferred so it runs on
// every exit path — including a handler panic unwinding through
// net/http's recovery — and can never leak when a hedged request is
// cancelled mid-flight. Only the fixed endpoint set is tallied
// (arbitrary paths must not grow the map without bound).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	path := r.URL.Path
	switch {
	case path == "/simulate" || path == "/sweep" || path == "/healthz" ||
		path == "/readyz" || path == "/metrics" || path == "/spans":
	case strings.HasPrefix(path, "/result/"):
		path = "/result"
	default:
		path = "other"
	}
	s.reqMu.Lock()
	s.requests[path]++
	s.reqMu.Unlock()
	s.mux.ServeHTTP(w, r)
}

// StartDraining flips /readyz to 503. The listener keeps serving —
// liveness is unaffected — but a heartbeating coordinator will stop
// routing new jobs here.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Draining reports whether StartDraining has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Metrics is the engine snapshot plus this server's HTTP gauges. The
// in-flight gauge includes the /metrics request being served.
func (s *Server) Metrics() Metrics {
	m := s.engine.Metrics()
	m.HTTPInflight = s.inflight.Load()
	m.Draining = s.draining.Load()
	m.PeerFillServed = s.peerServed.Load()
	s.reqMu.Lock()
	m.Requests = make(map[string]int64, len(s.requests))
	for k, v := range s.requests {
		m.Requests[k] = v
	}
	s.reqMu.Unlock()
	return m
}

// The HTTP toolkit below serves every bowd mode: this worker server,
// the plain coordinator (internal/cluster) and the durable one
// (internal/durable).

// RequireMethod answers 405 and reports false unless the request uses
// method.
func RequireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		HTTPError(w, http.StatusMethodNotAllowed,
			fmt.Errorf("use %s %s", method, r.URL.Path))
		return false
	}
	return true
}

// DecodeBody decodes the JSON request body into v, rejecting unknown
// fields; a body that does not decode is answered 400 and reported
// false.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	// 64 MiB: a plain spec is tiny, but a migrated job arrives with its
	// checkpoint inlined in JobSpec.FromCheckpoint.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		HTTPError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// WriteJSON answers 200 with v as indented JSON.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// HTTPError answers code with {"error": err}.
func HTTPError(w http.ResponseWriter, code int, err error) {
	writeStatus(w, code, map[string]string{"error": err.Error()})
}

// ServeReadyz answers GET /readyz: {"status":"ready"}, or 503 with
// {"status":"draining"} once the server has started draining.
func ServeReadyz(w http.ResponseWriter, r *http.Request, draining bool) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	if draining {
		writeStatus(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, map[string]string{"status": "ready"})
}

func writeStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
