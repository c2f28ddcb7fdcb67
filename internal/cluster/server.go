package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"

	"bow/internal/simjob"
	"bow/internal/trace"
)

// StreamEvent is one NDJSON line of a streaming sweep (POST
// /sweep?stream=1): per-completion events carry Item with Done/Total
// progress over unique points; the final line carries Summary (with
// Items stripped — the per-item lines already delivered them).
type StreamEvent struct {
	Done    int                 `json:"done,omitempty"`
	Total   int                 `json:"total,omitempty"`
	Item    *simjob.SweepItem   `json:"item,omitempty"`
	Summary *simjob.SweepResult `json:"summary,omitempty"`
}

// JoinRequest is the body of POST /join.
type JoinRequest struct {
	Addr string `json:"addr"`
}

// Server is the coordinator's HTTP interface — what cmd/bowd serves
// in -coordinator mode and cmd/bowctl talks to. The durable
// coordinator (internal/durable) serves these routes too, re-routing
// /simulate, /sweep and /join through its WAL-backed service.
//
// Requests carrying an X-Bow-Trace-Id header get their trace ID
// threaded into routing (and forwarded to workers by the per-worker
// clients); GET /spans?trace=ID gathers the full cross-process trace.
//
//	POST /simulate          JobSpec -> simjob.SimulateResponse (routed)
//	POST /sweep             SweepSpec -> simjob.SweepResult
//	POST /sweep?stream=1    SweepSpec -> NDJSON StreamEvents
//	POST /join              {"addr":"host:port"} -> {"joined":bool}
//	POST /leave             {"addr":"host:port"} -> {"left":bool}
//	GET  /status            Status
//	GET  /spans             coordinator + worker spans, ?trace=ID filters
//	GET  /healthz           liveness
//	GET  /readyz            readiness (503 while draining)
//	GET  /metrics           Counters + latency quantiles (JSON);
//	                        Prometheus text when Accept asks for text/plain
type Server struct {
	coord    *Coordinator
	mux      *http.ServeMux
	draining atomic.Bool
}

// NewServer builds the coordinator's HTTP interface.
func NewServer(c *Coordinator) *Server {
	s := &Server{coord: c, mux: http.NewServeMux()}
	s.mux.HandleFunc("/simulate", func(w http.ResponseWriter, r *http.Request) {
		if !simjob.RequireMethod(w, r, http.MethodPost) {
			return
		}
		var spec simjob.JobSpec
		if !simjob.DecodeBody(w, r, &spec) {
			return
		}
		ctx := trace.ContextWithID(r.Context(), r.Header.Get(trace.HeaderTraceID))
		res, cached, err := c.Do(ctx, spec)
		if err != nil {
			simjob.HTTPError(w, ErrStatus(err), err)
			return
		}
		simjob.WriteJSON(w, simjob.SimulateResponse{Cached: cached, Result: res})
	})
	s.mux.HandleFunc("/sweep", SweepHandler(c.Sweep, ErrStatus))
	s.mux.HandleFunc("/join", MembershipHandler("join", "joined", c.Join))
	s.mux.HandleFunc("/leave", MembershipHandler("leave", "left", c.Leave))
	s.mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		if !simjob.RequireMethod(w, r, http.MethodGet) {
			return
		}
		simjob.WriteJSON(w, c.GatherSpans(r.Context(), r.URL.Query().Get("trace")))
	})
	s.mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		if !simjob.RequireMethod(w, r, http.MethodGet) {
			return
		}
		simjob.WriteJSON(w, c.Status())
	})
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !simjob.RequireMethod(w, r, http.MethodGet) {
			return
		}
		st := c.Status()
		simjob.WriteJSON(w, map[string]any{
			"status": "ok", "workers": len(st.Workers), "ready": st.ready(),
		})
	})
	s.mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		simjob.ServeReadyz(w, r, s.draining.Load())
	})
	s.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		simjob.ServeMetrics(w, r, s.WritePrometheus, func() any {
			st := c.Status()
			return map[string]any{
				"counters":         st.Counters,
				"p50LatencyMicros": st.P50LatencyMicros,
				"p95LatencyMicros": st.P95LatencyMicros,
				"hedgeDelayMicros": st.HedgeDelayMicros,
				"workers":          len(st.Workers),
			}
		})
	})
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// StartDraining flips /readyz to 503, mirroring the worker server's
// drain semantics for anything load-balancing across coordinators.
func (s *Server) StartDraining() { s.draining.Store(true) }

// SweepFunc runs a sweep, handing each unique point's item to onItem
// (when non-nil) as it completes.
type SweepFunc func(ctx context.Context, sw simjob.SweepSpec, onItem func(done, total int, item simjob.SweepItem)) (*simjob.SweepResult, error)

// SweepHandler serves POST /sweep over sweep: the whole SweepResult as
// JSON, or — with ?stream=1 or Accept: application/x-ndjson — one
// NDJSON StreamEvent per unique point as it completes and a final
// summary with the items stripped. status maps a sweep error onto the
// HTTP status; once the first item has streamed the status line is
// gone, so a later failure just ends the stream.
func SweepHandler(sweep SweepFunc, status func(error) int) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !simjob.RequireMethod(w, r, http.MethodPost) {
			return
		}
		var sw simjob.SweepSpec
		if !simjob.DecodeBody(w, r, &sw) {
			return
		}
		ctx := trace.ContextWithID(r.Context(), r.Header.Get(trace.HeaderTraceID))
		if r.URL.Query().Get("stream") == "" &&
			!strings.Contains(r.Header.Get("Accept"), "application/x-ndjson") {
			res, err := sweep(ctx, sw, nil)
			if err != nil {
				simjob.HTTPError(w, status(err), err)
				return
			}
			simjob.WriteJSON(w, res)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		emit := func(ev StreamEvent) {
			_ = enc.Encode(ev)
			if flusher != nil {
				flusher.Flush()
			}
		}
		// onItem calls are serialized, and the last one happens before
		// sweep returns.
		streamed := false
		res, err := sweep(ctx, sw, func(done, total int, item simjob.SweepItem) {
			streamed = true
			emit(StreamEvent{Done: done, Total: total, Item: &item})
		})
		if err != nil {
			if !streamed {
				simjob.HTTPError(w, status(err), err)
			}
			return
		}
		sum := *res
		sum.Items = nil
		emit(StreamEvent{Summary: &sum})
	}
}

// MembershipHandler serves POST /join or /leave (verb): the body names
// a worker address, and apply adds or removes it and reports whether
// that changed the fleet, answered as {field: bool}.
func MembershipHandler(verb, field string, apply func(addr string) bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !simjob.RequireMethod(w, r, http.MethodPost) {
			return
		}
		var req JoinRequest
		if !simjob.DecodeBody(w, r, &req) {
			return
		}
		if req.Addr == "" {
			simjob.HTTPError(w, http.StatusBadRequest, fmt.Errorf("cluster: %s needs addr", verb))
			return
		}
		simjob.WriteJSON(w, map[string]any{field: apply(req.Addr)})
	}
}

// ErrStatus maps a coordinator error onto the HTTP status it answers
// with: a bad spec or sweep (ErrBadSpec) and a worker's 4xx verdict
// are the caller's fault (400); everything else — no workers,
// exhausted retries, a worker's 5xx — is a 502: the request was fine,
// the cluster could not serve it.
func ErrStatus(err error) int {
	var se *simjob.StatusError
	if errors.Is(err, ErrBadSpec) || errors.As(err, &se) && se.Permanent() {
		return http.StatusBadRequest
	}
	return http.StatusBadGateway
}
