package gpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bow/internal/config"
	"bow/internal/core"
	"bow/internal/mem"
	"bow/internal/policy"
)

// TestLoopDifferentialFuzz runs random kernels under the optimized and
// the reference cycle loop and demands a bit-identical Result: cycles,
// every counter, every exit register snapshot, and the full output
// memory. Where TestLoopDifferential (simjob) covers real workloads,
// this covers the corner cases the generator reaches — divergence,
// loops, tiny BOCs — across loop implementations. Each kernel runs
// under both warp schedulers, and with a 4-entry collector pool, which
// fills mid-scan and stops the fast issue scan's stall count early.
func TestLoopDifferentialFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(0xD1FF))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	policies := []core.Config{
		{Policy: core.PolicyBaseline},
		{IW: 2, Policy: core.PolicyWriteThrough},
		{IW: 3, Policy: core.PolicyWriteBack},
		{IW: 3, Policy: core.PolicyCompilerHints},
		{IW: 2, Capacity: 2, Policy: core.PolicyWriteBack}, // tiny BOC stress
		rowConfig(policy.CARFC, 2),
		rowConfig(policy.LTRF, 3),
		rowConfig(policy.SCRF, 0),
	}
	type chip struct {
		name string
		gcfg config.GPU
	}
	var chips []chip
	for _, sched := range []string{"gto", "lrr"} {
		for _, ocus := range []int{smallGPU().NumOCUs, 4} {
			g := smallGPU()
			g.Scheduler, g.NumOCUs = sched, ocus
			chips = append(chips, chip{fmt.Sprintf("%s/ocus%d", sched, ocus), g})
		}
	}
	for trial := 0; trial < trials; trial++ {
		src := genKernel(r)
		for _, bcfg := range policies {
			for _, c := range chips {
				checkLoopDiffKernel(t, src, bcfg, c.gcfg, fmt.Sprintf("trial %d policy %v %s", trial, bcfg.Policy, c.name))
			}
		}
	}
}

// checkLoopDiffKernel runs src on a grid of 2 CTAs of 256 threads under
// both cycle loops of gcfg and compares the results; what names the
// case in failures. The 16 warps give each of the 4 schedulers several
// slots, so a scan meets blocked slots before and after a candidate.
func checkLoopDiffKernel(t *testing.T, src string, bcfg core.Config, gcfg config.GPU, what string) {
	t.Helper()
	const grid, block = 2, 256
	const n = grid * block
	var ref *Result
	var refMem []uint32
	for _, reference := range []bool{true, false} {
		m := mem.NewMemory()
		k := prepareFor(t, src, grid, block, []uint32{0x10000}, bcfg)
		gcfg.ReferenceLoop = reference
		d, err := New(gcfg, bcfg, k, m)
		if err != nil {
			t.Fatal(err)
		}
		d.CaptureRegs = true
		res, err := d.Run(0)
		if err != nil {
			t.Fatalf("%s ref=%v: %v\n%s", what, reference, err, src)
		}
		out, err := m.ReadWords(0x10000, n)
		if err != nil {
			t.Fatal(err)
		}
		if reference {
			ref, refMem = res, out
			continue
		}
		if res.Cycles != ref.Cycles {
			t.Errorf("%s: cycles optimized %d, reference %d", what, res.Cycles, ref.Cycles)
		}
		if !reflect.DeepEqual(res.Stats, ref.Stats) {
			t.Errorf("%s: RunStats diverge\noptimized %+v\nreference %+v", what, res.Stats, ref.Stats)
		}
		if res.RF != ref.RF || res.Engine != ref.Engine || res.Energy != ref.Energy {
			t.Errorf("%s: RF/engine/energy counters diverge", what)
		}
		if !reflect.DeepEqual(res.RegSnapshots, ref.RegSnapshots) {
			t.Errorf("%s: register snapshots diverge", what)
		}
		if !reflect.DeepEqual(out, refMem) {
			t.Errorf("%s: output memory diverges\n%s", what, src)
		}
	}
}
