package cluster

import (
	"fmt"
	"io"

	"bow/internal/simjob"
)

// WritePrometheus renders the coordinator's counters, routing latency
// quantiles, hedge state, and per-(hop,stage) span breakdowns in
// Prometheus text exposition format.
func (s *Server) WritePrometheus(w io.Writer) {
	st := s.coord.Status()
	simjob.PromGauge(w, "bow_cluster_workers", "Workers registered with the coordinator.", int64(len(st.Workers)))
	simjob.PromGauge(w, "bow_cluster_workers_ready", "Workers currently routable.", int64(st.ready()))
	simjob.PromCounter(w, "bow_cluster_jobs_total", "Unique specs submitted through the coordinator.", st.Counters.Jobs)
	simjob.PromCounter(w, "bow_cluster_done_total", "Jobs completed successfully.", st.Counters.Done)
	simjob.PromCounter(w, "bow_cluster_failed_total", "Jobs that exhausted every attempt.", st.Counters.Failed)
	simjob.PromCounter(w, "bow_cluster_local_cache_hits_total", "Jobs answered from the coordinator's own cache.", st.Counters.LocalCacheHits)
	simjob.PromCounter(w, "bow_cluster_retries_total", "Re-dispatches after a failed attempt.", st.Counters.Retries)
	simjob.PromCounter(w, "bow_cluster_hedges_total", "Speculative duplicate dispatches fired.", st.Counters.Hedges)
	simjob.PromCounter(w, "bow_cluster_hedge_wins_total", "Hedges that finished before the primary.", st.Counters.HedgeWins)
	simjob.PromCounter(w, "bow_cluster_hedge_discarded_total", "Duplicate results thrown away after a winner.", st.Counters.HedgeDiscarded)

	fmt.Fprintf(w, "# HELP bow_cluster_job_latency_microseconds Recent routed-job latency quantiles.\n")
	fmt.Fprintf(w, "# TYPE bow_cluster_job_latency_microseconds gauge\n")
	fmt.Fprintf(w, "bow_cluster_job_latency_microseconds{quantile=\"0.5\"} %d\n", st.P50LatencyMicros)
	fmt.Fprintf(w, "bow_cluster_job_latency_microseconds{quantile=\"0.95\"} %d\n", st.P95LatencyMicros)
	simjob.PromGauge(w, "bow_cluster_hedge_delay_microseconds", "Straggler threshold in force (0 = hedging inactive).", st.HedgeDelayMicros)

	s.coord.Spans().WritePrometheus(w)
}
