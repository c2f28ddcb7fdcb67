package simjob

import "bow/internal/artifact"

// Metrics is a point-in-time snapshot of the engine's gauges and
// counters — cmd/bowd serves it at /metrics.
type Metrics struct {
	Workers int   `json:"workers"`
	Queued  int64 `json:"queued"`
	Running int64 `json:"running"`
	Done    int64 `json:"done"`
	Failed  int64 `json:"failed"`
	Retries int64 `json:"retries"`

	CacheHitsMemory int64   `json:"cacheHitsMemory"`
	CacheHitsDisk   int64   `json:"cacheHitsDisk"`
	CacheMisses     int64   `json:"cacheMisses"`
	CacheEntries    int     `json:"cacheEntries"`
	CacheHitRatio   float64 `json:"cacheHitRatio"`

	// Peer-to-peer cache fill: jobs satisfied by a sibling's cache
	// (hits), probe rounds where no peer held the result (misses), and —
	// filled by the Server wrapper — envelopes this worker served to
	// peers on GET /result/{hash}.
	PeerFillHits   int64 `json:"peerFillHits,omitempty"`
	PeerFillMisses int64 `json:"peerFillMisses,omitempty"`
	PeerFillServed int64 `json:"peerFillServed,omitempty"`

	// Shared-artifact cache (prepared kernels + sealed memory images,
	// process-wide artifact.Default): lookups that reused an artifact
	// vs. ones that built it.
	ArtifactHits   int64 `json:"artifactHits"`
	ArtifactMisses int64 `json:"artifactMisses"`

	// Device builds by kind: fresh (a whole chip allocated) or recycled
	// from a carcass in the engine's pool. Their ratio is the pool's hit
	// rate on the traffic's mix of GPU geometries.
	DeviceBuildsFresh    int64 `json:"deviceBuildsFresh"`
	DeviceBuildsRecycled int64 `json:"deviceBuildsRecycled"`

	// Job latency quantiles in microseconds, over completed attempts
	// (internal/stats histogram quantiles).
	P50LatencyMicros int `json:"p50LatencyMicros"`
	P99LatencyMicros int `json:"p99LatencyMicros"`

	// HTTP-level gauges, filled by the Server wrapper (zero/empty when
	// the engine is queried in-process): requests in flight right now,
	// per-endpoint request totals, and whether the server is draining.
	// The cluster coordinator's load-aware routing reads these; bowctl
	// status renders them.
	HTTPInflight int64            `json:"httpInflight,omitempty"`
	Requests     map[string]int64 `json:"requests,omitempty"`
	Draining     bool             `json:"draining,omitempty"`
}

// Metrics snapshots the engine state.
func (e *Engine) Metrics() Metrics {
	hitsMem, hitsDisk, misses := e.cache.Counters()
	ahits, amisses := artifact.Default.Counters()
	e.mu.Lock()
	m := Metrics{
		Workers: e.opts.Workers,
		Queued:  e.queued,
		Running: e.running,
		Done:    e.done,
		Failed:  e.failed,
		Retries: e.retries,

		CacheHitsMemory:  hitsMem,
		CacheHitsDisk:    hitsDisk,
		CacheMisses:      misses,
		PeerFillHits:     e.peerHits,
		PeerFillMisses:   e.peerMisses,
		ArtifactHits:     ahits,
		ArtifactMisses:   amisses,
		P50LatencyMicros: e.latencyUS.Quantile(0.50),
		P99LatencyMicros: e.latencyUS.Quantile(0.99),
	}
	e.mu.Unlock()
	m.CacheEntries = e.cache.Len()
	m.DeviceBuildsFresh = e.pool.fresh.Load()
	m.DeviceBuildsRecycled = e.pool.recycled.Load()
	if lookups := hitsMem + hitsDisk + misses; lookups > 0 {
		m.CacheHitRatio = float64(hitsMem+hitsDisk) / float64(lookups)
	}
	return m
}
