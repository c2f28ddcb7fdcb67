package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bow/bench/stats"
	"bow/internal/artifact"
	"bow/internal/simjob"
	"bow/internal/workloads"
)

const (
	// setupRepeats: setup_s is the median of this many set-ups per run.
	setupRepeats = 3
	// Traced serve_mix windows: an untraced one for the overhead
	// baseline, then the profiled one.
	tracedServeBaseline = 300
	tracedServeRequests = 600
	// httpProbeRequests memory-tier hits time the HTTP stack.
	httpProbeRequests = 200
)

// measure runs one workload once and returns its record.
func measure(ctx context.Context, o options, gold *golden) (*record, error) {
	wl, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(o.build, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	env := runEnv{seed: o.seed, nproc: runtime.NumCPU(), gold: gold, tmp: tmp}
	d := wl.new(env)
	defer d.tearDown()

	rec := &record{Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Host: hostInfo()}
	rec.GitSHA, rec.GitDirty = gitState()
	if o.trace == 0 {
		rec.Values, err = untraced(ctx, d, o)
	} else {
		rec.Values, err = traced(ctx, d, o, env)
	}
	if err != nil {
		return nil, err
	}
	t := d.tally()
	rec.Attempted, rec.Failed = t.attempted, t.failed
	if t.firstErr != nil {
		rec.FirstError = t.firstErr.Error()
	}
	if t.attempted > 0 {
		rec.Values["failed_frac"] = float64(t.failed) / float64(t.attempted)
	}
	return rec, nil
}

// setUpCold builds the driver's state from a cold artifact cache, the
// way a fresh process would find it, and returns the wall seconds it
// took net of stolen time.
func setUpCold(ctx context.Context, d driver) (float64, error) {
	d.tearDown()
	artifact.Default = artifact.NewCache(0, 0)
	runtime.GC()
	clock := readClock()
	if err := d.setUp(ctx); err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	wall, _, stolen := clock.since()
	return wall - stolen, nil
}

func yardSamples(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = sha256MBps()
	}
	return out
}

// untraced measures the gated end-to-end metrics, plus the figures the
// record reports beside them.
func untraced(ctx context.Context, d driver, o options) (map[string]float64, error) {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		s, err := setUpCold(ctx, d)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	yard := yardSamples(3)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	clock := readClock()
	ws, err := d.window(ctx, windowSpec{
		deadline: time.Now().Add(time.Duration(o.seconds) * time.Second),
		requests: o.seconds * serveRate,
	})
	if err != nil {
		return nil, err
	}
	wall, cpu, stolen := clock.since()
	runtime.ReadMemStats(&m1)
	yard = append(append(yard, ws.yard...), yardSamples(3)...)

	q1, q2, _ := stats.Quartiles(ws.latMS)
	tail, pct, _ := stats.Tail(ws.latMS)
	v := map[string]float64{
		"setup_s":              stats.Median(setups),
		"sim_cycles_per_cpu_s": stats.Median(ws.rates),
		"alloc_mb_per_op":      float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(ws.ops),
		"latency_ms_p25":       q1,

		// Reported, not gated.
		"latency_ms_p50":          q2,
		"latency_ms_tail":         tail,
		"latency_tail_percentile": pct,
		"latency_samples":         float64(len(ws.latMS)),
		"ops":                     float64(ws.ops),
		"host.sha256_mb_per_s":    stats.Median(yard),
		"host.steal_frac":         stolen / wall,
		"host.cpu_busy_frac":      cpu / wall / float64(runtime.NumCPU()),
	}
	if len(ws.wallRates) > 0 {
		v["sim_cycles_per_wall_s"] = stats.Median(ws.wallRates)
	}
	if ws.requests > 0 {
		v["cold_latency_ms_p50"] = stats.Median(ws.coldMS)
		v["cold_latency_ms_tail"], _, _ = stats.Tail(ws.coldMS)
		v["hit_latency_ms_p50"] = stats.Median(ws.hitMS)
		v["hit_latency_ms_tail"], _, _ = stats.Tail(ws.hitMS)
		v["cold_samples"] = float64(len(ws.coldMS))
		v["hit_samples"] = float64(len(ws.hitMS))
		v["client.late_ms_tail"], _, _ = stats.Tail(ws.lateMS)
	}
	return v, nil
}

func frac[T int | int64](part, whole T) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// traced measures the per-layer metrics: the workload's own work under
// the CPU profiler, then the decomposed executor (its fast loops under
// a second, policy-labelled profile) and the probes.
func traced(ctx context.Context, d driver, o options, env runEnv) (map[string]float64, error) {
	if _, err := setUpCold(ctx, d); err != nil {
		return nil, err
	}
	base, err := d.window(ctx, windowSpec{requests: tracedServeBaseline})
	if err != nil {
		return nil, err
	}
	profDir := filepath.Join(o.build, "prof")
	if err := os.MkdirAll(profDir, 0o755); err != nil {
		return nil, err
	}
	profBase := filepath.Join(profDir, fmt.Sprintf("%s-s%d", o.workload, o.seed))
	h0, m0 := artifact.Default.Counters()
	prof, err := startProfile(profBase + ".pprof")
	if err != nil {
		return nil, err
	}
	t, werr := d.window(ctx, windowSpec{requests: tracedServeRequests, traced: true})
	samples, err := prof.stop(ctx)
	if werr != nil {
		return nil, werr
	}
	if err != nil {
		return nil, err
	}
	h1, m1 := artifact.Default.Counters()
	d.tearDown()

	v := map[string]float64{
		"artifact.hit_frac":             frac(h1-h0, h1-h0+m1-m0),
		"simjob.cache_memory_hit_frac":  frac(t.memHits, t.requests),
		"simjob.cache_disk_hit_frac":    frac(t.diskHits, t.requests),
		"simjob.queue_wait_share":       frac(t.queueUS, t.queueUS+t.engineUS),
		"simjob.fork_reused_cycle_frac": frac(t.reusedCycles, t.cycles),
		"gpu.batch_occupancy":           0,
	}
	if len(t.occupancy) > 0 {
		v["gpu.batch_occupancy"] = stats.Median(t.occupancy)
	}
	// Tracing overhead on the workload's main metric: request latency
	// for serve_mix, sweep throughput otherwise.
	if t.requests > 0 {
		v["trace.overhead_frac"] = stats.Median(t.latMS)/stats.Median(base.latMS) - 1
	} else {
		v["trace.overhead_frac"] = stats.Median(base.rates)/stats.Median(t.rates) - 1
	}

	shares, err := cpuShares(samples)
	if err != nil {
		return nil, err
	}
	for b, s := range shares {
		v[b+".cpu_share"] = s
	}

	log := newSpanLog()
	if err := layers(ctx, log, env, profBase+"-loops.pprof", d.tally(), v); err != nil {
		return nil, err
	}
	spanPath := filepath.Join(o.build, "spans", fmt.Sprintf("%s-s%d.ndjson", o.workload, o.seed))
	if err := log.write(spanPath); err != nil {
		return nil, err
	}
	return v, nil
}

// layers runs the decomposed executor over the crosspolicy grid and the
// forked warm-ups, then the serving and replay probes, filling v. The
// grid runs under a CPU profile written to loopProf, whose fast-loop
// samples (labelled by policy) give each policy's cycle-loop module
// shares: loop.<policy>.<bucket>.cpu_share, reported but not gated.
func layers(ctx context.Context, log *spanLog, env runEnv, loopProf string, t *tally, v map[string]float64) error {
	x := &decomposer{log: log, gold: env.gold}
	policies := simjob.AllPolicies()
	type agg struct{ fast, ref, cycles, executed, oc, inst, rf int64 }
	per := map[string]*agg{}
	for _, p := range policies {
		per[p] = &agg{}
	}
	var runs []*pointRun
	var buildKB []float64
	grid := expandAll(shuffled(crossPolicySweep(), newRand(env.seed)))
	prof, err := startProfile(loopProf)
	if err != nil {
		return err
	}
	for i, sp := range grid {
		pr, err := x.run(ctx, sp, i)
		t.add(err)
		if err != nil {
			continue
		}
		runs = append(runs, pr)
		buildKB = append(buildKB, float64(pr.buildAlloc)/1024)
		a := per[pr.spec.Policy]
		a.fast += pr.fastNS
		a.ref += pr.refNS
		a.cycles += pr.res.Cycles
		a.executed += pr.res.Stats.Executed
		a.oc += pr.res.Stats.OCStageCycles
		a.inst += pr.res.Stats.TotalInstCycles
		a.rf += pr.res.Engine.RFReads + pr.res.Engine.RFWrites
	}
	samples, err := prof.stop(ctx)
	if err != nil {
		return err
	}
	if len(runs) == 0 {
		return fmt.Errorf("decomposed executor: no point completed: %v", t.firstErr)
	}
	for _, p := range policies {
		// A policy whose loops drew no sample this run reports nothing.
		if shares, err := cpuShares(labelled(samples, "loop", p)); err == nil {
			for b, s := range shares {
				v["loop."+p+"."+b+".cpu_share"] = s
			}
		}
		a := per[p]
		v["gpu.loop_ns_per_cycle."+p] = float64(a.fast) / float64(a.cycles)
		v["gpu.loop_speedup_vs_reference."+p] = float64(a.ref) / float64(a.fast)
		v["sim.ipc."+p] = float64(a.executed) / float64(a.cycles)
		v["sim.oc_share."+p] = float64(a.oc) / float64(a.inst)
		v["sim.rf_accesses_per_inst."+p] = float64(a.rf) / float64(a.executed)
	}
	v["gpu.build_alloc_kb"] = stats.Median(buildKB)

	var snapKB []float64
	for _, b := range workloads.Names() {
		size, err := x.fork(ctx, b, simjob.DefaultWarmupCycles)
		t.add(err)
		if size > 0 {
			snapKB = append(snapKB, float64(size)/1024)
		}
	}
	v["snap.snapshot_kb"] = stats.Median(snapKB)

	self := log.selfUS()
	for name, span := range map[string]string{
		"simjob.normalize_hash_us_p50": "normalize_hash",
		"artifact.parse_us_p50":        "parse",
		"artifact.compile_us_p50":      "compile",
		"artifact.prepare_us_p50":      "prepare",
		"artifact.image_us_p50":        "image",
		"gpu.build_us_p50":             "build",
		"gpu.salvaged_build_us_p50":    "salvaged_build",
		"gpu.check_us_p50":             "check",
		"snap.snapshot_us_p50":         "snapshot",
		"snap.restore_us_p50":          "restore",
	} {
		v[name] = stats.Median(self[span])
	}

	decodeUS, encodeUS, err := codecProbe(runs)
	if err != nil {
		return err
	}
	v["simjob.http_decode_us_p50"] = stats.Median(decodeUS)
	v["simjob.http_encode_us_p50"] = stats.Median(encodeUS)

	dir, err := os.MkdirTemp(env.tmp, "cache-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	putUS, memUS, diskUS, err := cacheProbe(dir, runs)
	if err != nil {
		return err
	}
	v["simjob.cache_put_disk_us_p50"] = stats.Median(putUS)
	v["simjob.cache_get_memory_us_p50"] = stats.Median(memUS)
	v["simjob.cache_get_disk_us_p50"] = stats.Median(diskUS)

	overheadUS, err := httpProbe(ctx, env.nproc, httpProbeRequests)
	if err != nil {
		return err
	}
	v["simjob.http_overhead_us_p50"] = stats.Median(overheadUS)

	replay, err := replayProbe(ctx, workloads.Names(), policies)
	if err != nil {
		return err
	}
	for p, ns := range replay {
		v["core.advance_ns_per_inst."+p] = ns
	}
	return nil
}
