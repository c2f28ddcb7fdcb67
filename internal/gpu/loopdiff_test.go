package gpu

import (
	"math/rand"
	"reflect"
	"testing"

	"bow/internal/core"
	"bow/internal/mem"
	"bow/internal/policy"
)

// TestLoopDifferentialFuzz runs random kernels under the optimized and
// the reference cycle loop and demands a bit-identical Result: cycles,
// every counter, every exit register snapshot, and the full output
// memory. Where TestLoopDifferential (simjob) covers real workloads,
// this covers the corner cases the generator reaches — divergence,
// loops, tiny BOCs — across loop implementations.
func TestLoopDifferentialFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(0xD1FF))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	const grid, block = 2, 64
	const n = grid * block
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
	for trial := 0; trial < trials; trial++ {
		src := genKernel(r)
		for _, bcfg := range policies {
			var ref *Result
			var refMem []uint32
			for _, reference := range []bool{true, false} {
				m := mem.NewMemory()
				k := prepareFor(t, src, grid, block, []uint32{0x10000}, bcfg)
				gcfg := smallGPU()
				gcfg.ReferenceLoop = reference
				d, err := New(gcfg, bcfg, k, m)
				if err != nil {
					t.Fatal(err)
				}
				d.CaptureRegs = true
				res, err := d.Run(0)
				if err != nil {
					t.Fatalf("trial %d policy %v ref=%v: %v\n%s",
						trial, bcfg.Policy, reference, err, src)
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
					t.Errorf("trial %d policy %v: cycles optimized %d, reference %d",
						trial, bcfg.Policy, res.Cycles, ref.Cycles)
				}
				if !reflect.DeepEqual(res.Stats, ref.Stats) {
					t.Errorf("trial %d policy %v: RunStats diverge\noptimized %+v\nreference %+v",
						trial, bcfg.Policy, res.Stats, ref.Stats)
				}
				if res.RF != ref.RF || res.Engine != ref.Engine || res.Energy != ref.Energy {
					t.Errorf("trial %d policy %v: RF/engine/energy counters diverge",
						trial, bcfg.Policy)
				}
				if !reflect.DeepEqual(res.RegSnapshots, ref.RegSnapshots) {
					t.Errorf("trial %d policy %v: register snapshots diverge", trial, bcfg.Policy)
				}
				if !reflect.DeepEqual(out, refMem) {
					t.Errorf("trial %d policy %v: output memory diverges\n%s",
						trial, bcfg.Policy, src)
				}
			}
		}
	}
}
