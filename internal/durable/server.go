package durable

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"bow/internal/cluster"
	"bow/internal/simjob"
	"bow/internal/trace"
)

// Server is the durable coordinator's HTTP interface: the cluster
// server's routes with /simulate, /sweep and /join re-routed through
// the Service (WAL + tenancy + fair share), plus the WAL tail
// endpoints a standby needs and the tenant table. Every route except
// the open set (probes, metrics, WAL tail, membership) requires an API
// key.
//
//	POST /simulate      JobSpec -> SimulateResponse (durable, fair-share)
//	POST /sweep         SweepSpec -> SweepResult (?stream=1 for NDJSON)
//	POST /join          worker join (open, also WAL-logged for failover)
//	POST /leave         worker deregistration (open, delegated)
//	GET  /tenants       per-tenant status rows
//	POST /tenants       upsert a tenant (logged, replicated to standby)
//	GET  /wal/stat      {"end": lsn} — durable end of the log
//	GET  /wal?from=N    {"records": [...], "end": lsn} — tail batch
//	GET  /status        cluster status (delegated)
//	GET  /spans         trace spans (delegated)
//	GET  /healthz       liveness (delegated)
//	GET  /readyz        readiness: 503 while draining (delegated)
//	GET  /metrics       cluster + durable families (bow_wal_*,
//	                    bow_tenant_*); JSON unless Accept: text/plain
type Server struct {
	svc     *Service
	inner   *cluster.Server
	handler http.Handler
}

// NewServer wires the durable tier in front of a cluster coordinator.
func NewServer(svc *Service, coord *cluster.Coordinator) *Server {
	s := &Server{svc: svc, inner: cluster.NewServer(coord)}
	mux := http.NewServeMux()

	mux.HandleFunc("/simulate", func(w http.ResponseWriter, r *http.Request) {
		if !simjob.RequireMethod(w, r, http.MethodPost) {
			return
		}
		var spec simjob.JobSpec
		if !simjob.DecodeBody(w, r, &spec) {
			return
		}
		ctx := trace.ContextWithID(r.Context(), r.Header.Get(trace.HeaderTraceID))
		res, err := svc.Submit(ctx, TenantFromContext(r.Context()), spec)
		if err != nil {
			simjob.HTTPError(w, errStatus(err), err)
			return
		}
		simjob.WriteJSON(w, simjob.SimulateResponse{Result: res})
	})

	mux.HandleFunc("/sweep", cluster.SweepHandler(func(ctx context.Context, sw simjob.SweepSpec, onItem func(done, total int, item simjob.SweepItem)) (*simjob.SweepResult, error) {
		return svc.SubmitSweep(ctx, TenantFromContext(ctx), sw, onItem)
	}, errStatus))

	mux.HandleFunc("/join", cluster.MembershipHandler("join", "joined", func(addr string) bool {
		joined := coord.Join(addr)
		if joined {
			// Log it so a promoted standby re-dials this worker.
			svc.NoteWorker(addr)
		}
		return joined
	}))

	mux.HandleFunc("/tenants", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			simjob.WriteJSON(w, svc.Tenants().Snapshot())
		case http.MethodPost:
			var t Tenant
			if !simjob.DecodeBody(w, r, &t) {
				return
			}
			if t.Name == "" || t.APIKey == "" {
				simjob.HTTPError(w, http.StatusBadRequest, fmt.Errorf("durable: tenant needs name and apiKey"))
				return
			}
			if err := svc.UpsertTenant(t); err != nil {
				simjob.HTTPError(w, http.StatusInternalServerError, err)
				return
			}
			simjob.WriteJSON(w, map[string]any{"upserted": t.Name})
		default:
			simjob.HTTPError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET or POST /tenants"))
		}
	})

	mux.HandleFunc("/wal/stat", func(w http.ResponseWriter, r *http.Request) {
		if !simjob.RequireMethod(w, r, http.MethodGet) {
			return
		}
		simjob.WriteJSON(w, map[string]int64{"end": svc.WAL().End()})
	})

	mux.HandleFunc("/wal", func(w http.ResponseWriter, r *http.Request) {
		if !simjob.RequireMethod(w, r, http.MethodGet) {
			return
		}
		from, _ := strconv.ParseInt(r.URL.Query().Get("from"), 10, 64)
		max, _ := strconv.Atoi(r.URL.Query().Get("max"))
		recs, end, err := svc.WAL().ReadFrom(from, max)
		if err != nil {
			simjob.HTTPError(w, http.StatusInternalServerError, err)
			return
		}
		simjob.WriteJSON(w, WALBatch{Records: recs, End: end})
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		simjob.ServeMetrics(w, r, func(w io.Writer) {
			s.inner.WritePrometheus(w)
			s.WritePrometheus(w)
		}, func() any {
			return map[string]any{"cluster": coord.Status().Counters, "durable": svc.Metrics()}
		})
	})

	// Everything else (leave, status, spans, healthz, readyz) is the
	// cluster server's.
	mux.Handle("/", s.inner)

	s.handler = svc.Tenants().Middleware(mux)
	return s
}

// WALBatch is the GET /wal response: a batch of records plus the
// durable end at serve time (so the tailer knows whether it caught up
// even when the batch is empty).
type WALBatch struct {
	Records []Record `json:"records"`
	End     int64    `json:"end"`
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// StartDraining flips /readyz to 503 ahead of shutdown.
func (s *Server) StartDraining() { s.inner.StartDraining() }

// WritePrometheus emits the durable-tier families (the cluster server
// writes its own; the /metrics handler concatenates the two).
func (s *Server) WritePrometheus(w io.Writer) {
	m := s.svc.Metrics()
	simjob.PromCounter(w, "bow_wal_appends_total", "Records appended to the WAL.", m.WAL.Appends)
	simjob.PromCounter(w, "bow_wal_syncs_total", "WAL fsync batches (group commits).", m.WAL.Syncs)
	simjob.PromCounter(w, "bow_wal_rotations_total", "WAL segment rotations.", m.WAL.Rotations)
	simjob.PromGauge(w, "bow_wal_end_lsn", "Highest durably synced LSN.", m.WAL.EndLSN)
	simjob.PromGauge(w, "bow_wal_segments", "Live WAL segment files.", int64(m.WAL.Segments))
	simjob.PromGauge(w, "bow_wal_size_bytes", "Total WAL bytes on disk.", m.WAL.SizeBytes)
	simjob.PromCounter(w, "bow_wal_store_puts_total", "Results persisted to the content-addressed store.", m.StorePuts)
	simjob.PromCounter(w, "bow_wal_store_hits_total", "Submissions served from the content-addressed store.", m.StoreHits)
	simjob.PromCounter(w, "bow_wal_recovered_total", "Jobs re-enqueued by crash recovery.", m.Recovered)
	simjob.PromCounter(w, "bow_wal_resumed_total", "Recovered jobs resumed from a checkpoint.", m.Resumed)

	simjob.PromCounter(w, "bow_tenant_admitted_total", "Requests admitted across all tenants.", m.TenantsAdmitted)
	simjob.PromCounter(w, "bow_tenant_rejected_unauthenticated_total", "Requests rejected 401.", m.TenantsRejected401)
	simjob.PromCounter(w, "bow_tenant_rejected_throttled_total", "Requests rejected 429 (rate limit or quota).", m.TenantsRejected429)
	simjob.PromGauge(w, "bow_tenant_queued_jobs", "Jobs waiting in tenant queues.", int64(m.Queued))
	for _, row := range m.Tenants {
		fmt.Fprintf(w, "bow_tenant_inflight{tenant=%q} %d\n", row.Name, row.Inflight)
		fmt.Fprintf(w, "bow_tenant_served_total{tenant=%q} %d\n", row.Name, row.Served)
		fmt.Fprintf(w, "bow_tenant_queued{tenant=%q} %d\n", row.Name, row.Queued)
	}
}

// errStatus answers tenancy rejections with 401 and 429 and leaves
// every other error to the cluster's status map.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnauthenticated):
		return http.StatusUnauthorized
	case errors.Is(err, ErrRateLimited), errors.Is(err, ErrOverQuota):
		return http.StatusTooManyRequests
	}
	return cluster.ErrStatus(err)
}
