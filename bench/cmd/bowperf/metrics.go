package main

import (
	"fmt"
	"math"

	"bow/internal/simjob"
)

const (
	lower  = "lower"
	higher = "higher"
)

// metricDef names one reported metric. BENCHMARK.json lists exactly
// these (TestBenchmarkJSONMatchesTables holds the two together).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the gated metrics: every untraced run of every workload
// prints all of them. On a sweep workload an operation is one sweep
// point and a latency sample is one whole sweep round (what a /sweep
// caller waits for), net of the time the hypervisor stole; on
// serve_mix an operation is one /simulate request, timed from the
// moment it was due. Throughput is counted against the process's CPU
// time, and latency is gated at its lower quartile: other tenants of a
// shared host can inflate wall time and the upper quantiles from one
// run to the next, but not the CPU a run uses nor its faster samples.
var endToEnd = []metricDef{
	{"setup_s", "s", lower},
	{"sim_cycles_per_cpu_s", "1/s", higher},
	{"alloc_mb_per_op", "MB", lower},
	{"latency_ms_p25", "ms", lower},
}

// cpuModules are the attribution buckets of the traced run's CPU
// profile: the simulator packages of the cycle loop and the serving
// stack, plus encoding/json and net. runtime GC, allocation and memory
// copying are kept apart; everything else is "other".
var cpuModules = []string{
	"sm", "scoreboard", "exec", "mem", "regfile", "core", "isa", "scheduler",
	"stats", "gpu", "snap", "simjob", "artifact", "json", "net",
}

var runtimeBuckets = []string{"runtime.gc", "runtime.alloc", "runtime.copy"}

// cpuBuckets is every cpu_share bucket, "other" last.
func cpuBuckets() []string {
	out := append(append([]string(nil), cpuModules...), runtimeBuckets...)
	return append(out, "other")
}

// perLayer are the traced run's metrics. Layer timings come from the
// decomposed executor and the serving probe, which run identically in
// every workload's traced run; cpu shares, hit fractions, batch
// occupancy, forked-cycle share and tracing overhead belong to the
// workload itself.
func perLayer() []metricDef {
	defs := []metricDef{
		{"simjob.normalize_hash_us_p50", "us", lower},
		{"simjob.cache_get_memory_us_p50", "us", lower},
		{"simjob.cache_get_disk_us_p50", "us", lower},
		{"simjob.cache_put_disk_us_p50", "us", lower},
		{"simjob.http_decode_us_p50", "us", lower},
		{"simjob.http_encode_us_p50", "us", lower},
		{"simjob.http_overhead_us_p50", "us", lower},
		{"simjob.cache_memory_hit_frac", "frac", higher},
		{"simjob.cache_disk_hit_frac", "frac", higher},
		{"simjob.queue_wait_share", "frac", lower},
		{"simjob.fork_reused_cycle_frac", "frac", higher},
		{"artifact.parse_us_p50", "us", lower},
		{"artifact.compile_us_p50", "us", lower},
		{"artifact.prepare_us_p50", "us", lower},
		{"artifact.image_us_p50", "us", lower},
		{"artifact.hit_frac", "frac", higher},
		{"gpu.build_us_p50", "us", lower},
		{"gpu.build_alloc_kb", "kB", lower},
		{"gpu.salvaged_build_us_p50", "us", lower},
		{"gpu.batch_occupancy", "frac", higher},
		{"gpu.check_us_p50", "us", lower},
		{"snap.snapshot_us_p50", "us", lower},
		{"snap.restore_us_p50", "us", lower},
		{"snap.snapshot_kb", "kB", lower},
		{"trace.overhead_frac", "frac", lower},
	}
	for _, p := range simjob.AllPolicies() {
		defs = append(defs,
			metricDef{"gpu.loop_ns_per_cycle." + p, "ns", lower},
			metricDef{"gpu.loop_speedup_vs_reference." + p, "x", higher},
			metricDef{"core.advance_ns_per_inst." + p, "ns", lower},
			metricDef{"sim.ipc." + p, "ipc", higher},
			metricDef{"sim.oc_share." + p, "frac", lower},
			metricDef{"sim.rf_accesses_per_inst." + p, "count", lower},
		)
	}
	for _, b := range cpuBuckets() {
		defs = append(defs, metricDef{b + ".cpu_share", "frac", lower})
	}
	return defs
}

// metric is one reported value, shaped as the result line wants it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick builds the result line's metric map from defs, failing when a
// value is missing or not a finite number.
func pick(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, nil
}
