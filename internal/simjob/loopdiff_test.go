package simjob

import (
	"context"
	"reflect"
	"testing"

	"bow/internal/workloads"
)

// loopDiffPolicies is every policy family the cycle loop serves; the
// optimized loop must be bit-identical under all of them. Deriving the
// roster from the alias table keeps a newly added architecture from
// silently escaping the loop differential.
var loopDiffPolicies = AllPolicies()

// loopDiffSchedulers are the warp schedulers the loop differential
// runs under: the default GTO (subtests BENCH/POLICY) and LRR
// (BENCH/POLICY/lrr). The fast issue scan ranks the two differently —
// GTO's greedy warp first, LRR's rotation in two ranges — so each
// needs its own oracle leg.
var loopDiffSchedulers = []string{"", "lrr"}

// TestLoopDifferential runs real workloads under the optimized cycle
// loop and the in-tree reference loop (the seed's map calendar,
// scan-everything dispatch and from-scratch issue scan) and demands a
// bit-identical gpu.Result: cycle count, every pipeline/RF/engine/energy
// counter, and every histogram bucket. This is the contract the
// timing-wheel, active-set, issue-state-cache, port-worklist and
// run-length-occupancy rewrites are held to — same reports, only
// faster. The reference scan is the issue cache's only real-kernel
// oracle, so the full suite runs every workload under both schedulers.
func TestLoopDifferential(t *testing.T) {
	benches := workloads.Names()
	if testing.Short() {
		benches = []string{"VECTORADD"}
	}
	for _, bench := range benches {
		for _, policy := range loopDiffPolicies {
			for _, sched := range loopDiffSchedulers {
				name := bench + "/" + policy
				if sched != "" {
					name += "/" + sched
				}
				spec := JobSpec{Bench: bench, Policy: policy, Scheduler: sched}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					checkLoopDifferential(t, spec)
				})
			}
		}
	}
}

// checkLoopDifferential runs spec under both cycle loops and compares
// the results.
func checkLoopDifferential(t *testing.T, spec JobSpec) {
	refSpec := spec
	refSpec.ReferenceLoop = true
	ref, err := Execute(context.Background(), refSpec)
	if err != nil {
		t.Fatalf("reference loop: %v", err)
	}
	got, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatalf("optimized loop: %v", err)
	}

	if got.Full.Cycles != ref.Full.Cycles {
		t.Errorf("cycles: optimized %d, reference %d",
			got.Full.Cycles, ref.Full.Cycles)
	}
	if !reflect.DeepEqual(got.Full.Stats, ref.Full.Stats) {
		t.Errorf("RunStats diverge:\noptimized %+v\nreference %+v",
			got.Full.Stats, ref.Full.Stats)
	}
	if got.Full.RF != ref.Full.RF {
		t.Errorf("RF stats: optimized %+v, reference %+v",
			got.Full.RF, ref.Full.RF)
	}
	if got.Full.Engine != ref.Full.Engine {
		t.Errorf("engine stats: optimized %+v, reference %+v",
			got.Full.Engine, ref.Full.Engine)
	}
	if got.Full.Energy != ref.Full.Energy {
		t.Errorf("energy counts: optimized %+v, reference %+v",
			got.Full.Energy, ref.Full.Energy)
	}

	// The serialized summaries must match too, except the spec hash
	// (ReferenceLoop is part of the spec) and wall time.
	gs, rs := got.Summary, ref.Summary
	gs.SpecHash, rs.SpecHash = "", ""
	gs.WallNanos, rs.WallNanos = 0, 0
	if gs != rs {
		t.Errorf("summaries diverge:\noptimized %+v\nreference %+v", gs, rs)
	}
}
