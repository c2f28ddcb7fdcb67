package simjob

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// prometheusContentType is the text exposition format version every
// bowd mode serves when a scraper asks for text/plain.
const prometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// wantsPrometheus reports whether the request's Accept header asks for
// the Prometheus text format. JSON stays the default — simjob.Client,
// bowctl and the coordinator's heartbeat send no Accept header, so
// their metric polling is unaffected.
func wantsPrometheus(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/plain")
}

// ServeMetrics answers GET /metrics: prom's Prometheus text when the
// Accept header asks for text/plain, the snapshot as JSON otherwise.
func ServeMetrics(w http.ResponseWriter, r *http.Request, prom func(io.Writer), snapshot func() any) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", prometheusContentType)
		prom(w)
		return
	}
	WriteJSON(w, snapshot())
}

// WritePrometheus renders the worker's metrics in Prometheus text
// exposition format: engine gauges and counters, cache tiers, job
// latency quantiles, the HTTP gauges, and the per-(hop,stage) span
// breakdowns.
func (s *Server) WritePrometheus(w io.Writer) {
	m := s.Metrics()
	PromGauge(w, "bow_worker_pool_size", "Simulation worker pool size.", int64(m.Workers))
	PromGauge(w, "bow_jobs_queued", "Jobs waiting for a pool worker.", m.Queued)
	PromGauge(w, "bow_jobs_running", "Jobs currently simulating.", m.Running)
	PromCounter(w, "bow_jobs_done_total", "Jobs completed successfully.", m.Done)
	PromCounter(w, "bow_jobs_failed_total", "Jobs that exhausted retries.", m.Failed)
	PromCounter(w, "bow_job_retries_total", "Extra attempts after job failures.", m.Retries)

	fmt.Fprintf(w, "# HELP bow_cache_hits_total Result cache hits by tier.\n")
	fmt.Fprintf(w, "# TYPE bow_cache_hits_total counter\n")
	fmt.Fprintf(w, "bow_cache_hits_total{tier=\"memory\"} %d\n", m.CacheHitsMemory)
	fmt.Fprintf(w, "bow_cache_hits_total{tier=\"disk\"} %d\n", m.CacheHitsDisk)
	PromCounter(w, "bow_cache_misses_total", "Result cache misses.", m.CacheMisses)
	PromGauge(w, "bow_cache_entries", "Entries in the in-memory cache tier.", int64(m.CacheEntries))

	PromCounter(w, "bow_peerfill_hits_total", "Jobs satisfied by a peer worker's cache instead of simulating.", m.PeerFillHits)
	PromCounter(w, "bow_peerfill_misses_total", "Peer-fill probe rounds where no peer held the result.", m.PeerFillMisses)
	PromCounter(w, "bow_peerfill_served_total", "Cached result envelopes served to peers on GET /result/{hash}.", m.PeerFillServed)

	PromCounter(w, "bow_artifact_hits_total", "Shared-artifact cache hits (prepared kernels and memory images reused).", m.ArtifactHits)
	PromCounter(w, "bow_artifact_misses_total", "Shared-artifact cache misses (artifacts built).", m.ArtifactMisses)

	fmt.Fprintf(w, "# HELP bow_device_builds_total Devices built for simulations, by kind: fresh, or recycled from the engine's carcass pool.\n")
	fmt.Fprintf(w, "# TYPE bow_device_builds_total counter\n")
	fmt.Fprintf(w, "bow_device_builds_total{kind=\"fresh\"} %d\n", m.DeviceBuildsFresh)
	fmt.Fprintf(w, "bow_device_builds_total{kind=\"recycled\"} %d\n", m.DeviceBuildsRecycled)

	fmt.Fprintf(w, "# HELP bow_job_latency_microseconds Completed job latency quantiles.\n")
	fmt.Fprintf(w, "# TYPE bow_job_latency_microseconds gauge\n")
	fmt.Fprintf(w, "bow_job_latency_microseconds{quantile=\"0.5\"} %d\n", m.P50LatencyMicros)
	fmt.Fprintf(w, "bow_job_latency_microseconds{quantile=\"0.99\"} %d\n", m.P99LatencyMicros)

	PromGauge(w, "bow_http_inflight", "HTTP requests being served right now.", m.HTTPInflight)
	if len(m.Requests) > 0 {
		fmt.Fprintf(w, "# HELP bow_http_requests_total HTTP requests served per endpoint.\n")
		fmt.Fprintf(w, "# TYPE bow_http_requests_total counter\n")
		paths := make([]string, 0, len(m.Requests))
		for p := range m.Requests {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		for _, p := range paths {
			fmt.Fprintf(w, "bow_http_requests_total{path=%q} %d\n", p, m.Requests[p])
		}
	}
	draining := int64(0)
	if m.Draining {
		draining = 1
	}
	PromGauge(w, "bow_draining", "1 while the server is draining (readyz 503).", draining)

	s.engine.Spans().WritePrometheus(w)
}

// PromGauge writes one Prometheus gauge sample with its HELP and TYPE
// lines.
func PromGauge(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}

// PromCounter writes one Prometheus counter sample with its HELP and
// TYPE lines.
func PromCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}
