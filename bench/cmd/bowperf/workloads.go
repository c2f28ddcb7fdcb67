package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"bow/internal/simjob"
	"bow/internal/trace"
	"bow/internal/workloads"
)

// workload is one traffic shape. Its driver holds the state one run
// builds; set-up may run several times per run (setup_s is a median),
// each time from a cold artifact cache.
type workload struct {
	name string
	why  string
	new  func(env runEnv) driver
}

// runEnv is what every driver needs from the run.
type runEnv struct {
	seed  int64
	nproc int
	gold  *golden
	tmp   string // scratch root for on-disk caches, inside the checkout
}

// driver runs one workload. setUp builds fresh state and performs the
// untimed warm-up; window measures; tearDown releases everything
// setUp built and is safe to call twice.
type driver interface {
	setUp(ctx context.Context) error
	window(ctx context.Context, w windowSpec) (*windowStats, error)
	tearDown()
	tally() *tally
}

// windowSpec bounds one measured window.
type windowSpec struct {
	deadline time.Time // sweeps: start no round after this; zero runs tracedRounds rounds
	requests int       // serve_mix: requests to issue
	traced   bool      // tag engine work with trace IDs so its spans are kept
}

// windowStats is what one window measured.
type windowStats struct {
	ops int // sweep points or requests completed
	// latMS: sweep round wall times net of stolen time, or request
	// latencies as measured (too short to correct).
	latMS []float64
	// rates: simulated cycles per process CPU-second, per sweep round,
	// or once for a serve window (cold cycles over all its CPU).
	rates     []float64
	wallRates []float64 // simulated cycles per wall second, per sweep round

	yard                 []float64 // host.sha256_mb_per_s samples between sweep rounds
	cycles, reusedCycles int64     // reported and warm-up-inherited cycles
	occupancy            []float64 // lockstep batch occupancy per round
	queueUS, engineUS    int64     // engine-path queue and simulation time (traced)

	requests, memHits, diskHits int
	coldMS, hitMS, lateMS       []float64
}

// tally counts attempted operations and failures: job errors, golden
// mismatches and non-200 responses alike.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) add(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

var allWorkloads = []workload{
	{
		name: "crosspolicy_cold",
		why:  "all 15 kernels x 8 policies per round on a fresh engine: cycle loop and device build dominate, no cache, batch or fork",
		new:  func(env runEnv) driver { return newSweep(env, crossPolicySweep()) },
	},
	{
		name: "iw_sweep_batched",
		why:  "15 kernels x bow-wt/bow-wr x IW 2-7 in lockstep batches with carcass recycling: the only user of gpu.Batch and Salvage",
		new: func(env runEnv) driver {
			sw := iwSweep()
			sw.Batch = true
			return newSweep(env, sw)
		},
	},
	{
		name: "iw_sweep_forked",
		why:  "the same IW grid forked from 256-cycle warm-ups: snapshot encode and restore on the critical path",
		new: func(env runEnv) driver {
			sw := iwSweep()
			sw.ForkPrefix = true
			return newSweep(env, sw)
		},
	},
	{
		name: "serve_mix",
		why:  "open loop at 60 req/s on /simulate: 30% first-seen points, 50% memory-tier and 20% disk-tier repeats",
		new:  func(env runEnv) driver { return newServe(env) },
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (one of %v)", name, names)
}

// crossPolicySweep is bowbench -exp crosspolicy traffic: every kernel
// under every policy at its default window.
func crossPolicySweep() simjob.SweepSpec {
	return simjob.SweepSpec{Benches: workloads.Names(), Policies: simjob.AllPolicies()}
}

// iwSweep is the paper's instruction-window axis (Figs. 3, 10, 12).
func iwSweep() simjob.SweepSpec {
	return simjob.SweepSpec{
		Benches:  workloads.Names(),
		Policies: []string{simjob.PolicyBOWWT, simjob.PolicyBOWWR},
		IWs:      []int{2, 3, 4, 5, 6, 7},
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// shuffled returns sw with every dimension's order permuted by rng, so
// the seed changes submission order and nothing else.
func shuffled(sw simjob.SweepSpec, rng *rand.Rand) simjob.SweepSpec {
	sw.Benches = append([]string(nil), sw.Benches...)
	sw.Policies = append([]string(nil), sw.Policies...)
	sw.IWs = append([]int(nil), sw.IWs...)
	rng.Shuffle(len(sw.Benches), func(i, j int) { sw.Benches[i], sw.Benches[j] = sw.Benches[j], sw.Benches[i] })
	rng.Shuffle(len(sw.Policies), func(i, j int) { sw.Policies[i], sw.Policies[j] = sw.Policies[j], sw.Policies[i] })
	rng.Shuffle(len(sw.IWs), func(i, j int) { sw.IWs[i], sw.IWs[j] = sw.IWs[j], sw.IWs[i] })
	return sw
}

// tracedRounds is a traced sweep window's length: enough rounds for
// about a thousand CPU profile samples at the default 100 Hz.
const tracedRounds = 8

// sweepDriver runs one sweep per round, each on a fresh engine so no
// result cache carries over between rounds.
type sweepDriver struct {
	env  runEnv
	spec simjob.SweepSpec
	t    tally
}

func newSweep(env runEnv, sw simjob.SweepSpec) *sweepDriver {
	return &sweepDriver{env: env, spec: shuffled(sw, newRand(env.seed))}
}

func (d *sweepDriver) tally() *tally { return &d.t }

func (d *sweepDriver) setUp(ctx context.Context) error {
	_, err := d.round(ctx, false)
	return err
}

func (d *sweepDriver) tearDown() {}

func (d *sweepDriver) window(ctx context.Context, w windowSpec) (*windowStats, error) {
	ws := &windowStats{}
	done := func(i int) bool {
		if w.deadline.IsZero() {
			return i == tracedRounds
		}
		return i > 0 && time.Now().After(w.deadline)
	}
	for i := 0; !done(i); i++ {
		r, err := d.round(ctx, w.traced)
		if err != nil {
			return nil, err
		}
		ws.ops += r.points
		ws.latMS = append(ws.latMS, (r.wall-r.stolen)*1e3)
		ws.rates = append(ws.rates, float64(r.cycles)/r.cpu)
		ws.wallRates = append(ws.wallRates, float64(r.cycles)/r.wall)
		ws.cycles += r.cycles
		ws.reusedCycles += r.reused
		ws.occupancy = append(ws.occupancy, r.occupancy)
		ws.queueUS += r.queueUS
		ws.engineUS += r.engineUS
		ws.yard = append(ws.yard, sha256MBps())
	}
	return ws, nil
}

type roundStats struct {
	points            int
	wall, cpu, stolen float64 // seconds
	cycles, reused    int64
	occupancy         float64
	queueUS, engineUS int64
}

// round runs the sweep once on a fresh engine and checks every item
// against the golden digests. Only RunSweep is timed, on the wall,
// process CPU and stolen clocks.
func (d *sweepDriver) round(ctx context.Context, traced bool) (roundStats, error) {
	e, err := simjob.New(simjob.Options{Workers: d.env.nproc})
	if err != nil {
		return roundStats{}, err
	}
	defer e.Close()
	if traced {
		ctx = trace.ContextWithID(ctx, trace.NewID())
	}
	clock := readClock()
	res, err := e.RunSweep(ctx, d.spec)
	if err != nil {
		return roundStats{}, err
	}
	r := roundStats{points: len(res.Items), occupancy: res.BatchOccupancy}
	r.wall, r.cpu, r.stolen = clock.since()
	for _, it := range res.Items {
		if it.Error != "" {
			d.t.add(fmt.Errorf("%s/%s iw=%d: %s", it.Spec.Bench, it.Spec.Policy, it.Spec.IW, it.Error))
			continue
		}
		d.t.add(d.env.gold.check(sweepKey(it, simjob.DefaultWarmupCycles), *it.Result))
		r.cycles += it.Result.Cycles
		r.reused += it.Result.ReusedCycles
	}
	if traced {
		r.queueUS, r.engineUS = engineTime(e.Spans().ByTrace(trace.IDFromContext(ctx)))
	}
	return r, nil
}

// engineTime sums the queue and simulation stages of engine-path jobs.
func engineTime(spans []trace.Span) (queueUS, engineUS int64) {
	for _, s := range spans {
		switch s.Stage {
		case trace.StageQueue:
			queueUS += s.DurMicros
		case trace.StageEngine:
			engineUS += s.DurMicros
		}
	}
	return queueUS, engineUS
}

// designSpace is every point serve_mix can draw: bench x scheduler x
// policy with its window knobs — 15 x 2 x (2 + 3x4 + 3x6x3) = 2040
// points, all valid and all in the golden table.
func designSpace() []simjob.JobSpec {
	var out []simjob.JobSpec
	for _, b := range workloads.Names() {
		for _, sched := range []string{"gto", "lrr"} {
			add := func(p string, iw, capacity int) {
				sp, err := simjob.JobSpec{Bench: b, Policy: p, IW: iw, Capacity: capacity, Scheduler: sched}.Normalize()
				if err != nil {
					panic(err) // the space is a constant of this program
				}
				out = append(out, sp)
			}
			add(simjob.PolicyBaseline, 0, 0)
			add(simjob.PolicySCRF, 0, 0)
			for _, p := range []string{simjob.PolicyRFC, simjob.PolicyCARFC, simjob.PolicyLTRF} {
				for _, c := range []int{4, 6, 8, 12} {
					add(p, 0, c)
				}
			}
			for _, p := range []string{simjob.PolicyBOWWT, simjob.PolicyBOWWB, simjob.PolicyBOWWR} {
				for iw := 2; iw <= 7; iw++ {
					for _, mul := range []int{0, 2, 3} {
						add(p, iw, mul*iw)
					}
				}
			}
		}
	}
	return out
}

// stratify orders the space for first-seen draws: each bench's points
// shuffled, then dealt round-robin across a shuffled bench order, so
// any prefix holds every bench in equal measure and the cold-request
// cost varies little from seed to seed.
func stratify(space []simjob.JobSpec, rng *rand.Rand) []simjob.JobSpec {
	byBench := map[string][]simjob.JobSpec{}
	var benches []string
	for _, sp := range space {
		if _, ok := byBench[sp.Bench]; !ok {
			benches = append(benches, sp.Bench)
		}
		byBench[sp.Bench] = append(byBench[sp.Bench], sp)
	}
	sort.Strings(benches)
	rng.Shuffle(len(benches), func(i, j int) { benches[i], benches[j] = benches[j], benches[i] })
	for _, b := range benches {
		g := byBench[b]
		rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	}
	out := make([]simjob.JobSpec, 0, len(space))
	for i := 0; len(out) < len(space); i++ {
		for _, b := range benches {
			if g := byBench[b]; i < len(g) {
				out = append(out, g[i])
			}
		}
	}
	return out
}
