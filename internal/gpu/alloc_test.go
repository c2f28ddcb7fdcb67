package gpu

import (
	"runtime"
	"testing"

	"bow/internal/policy"
)

// allocGate is the most heap objects a steady-state run may allocate
// per simulated cycle.
const allocGate = 1.0

// TestSteadyStateAllocsPerCycle is the cycle loop's allocation gate:
// every roster row at its default design point, on VECTORADD, LIB and
// SAD, on a device recycled from the same row's carcass, must allocate
// at most allocGate heap objects per simulated cycle over the build
// and the run. A recycled build reuses every configuration-shaped
// structure, so what is left is per-launch state (CTA records, shared
// memory, copy-on-write pages, the Result) — 0.02 to 0.1 objects per
// cycle on these kernels — and whatever a hot path allocates per
// cycle, which this gate catches.
func TestSteadyStateAllocsPerCycle(t *testing.T) {
	for _, bench := range []string{"VECTORADD", "LIB", "SAD"} {
		l := newRecycleLauncher(t, bench)
		for i := range policy.Roster {
			a := &policy.Roster[i]
			bcfg, err := a.DefaultConfig()
			if err != nil {
				t.Fatal(err)
			}
			// Two runs warm the carcass: the first builds it, the
			// second recycles it once, growing what a run grows.
			var sv *Salvage
			for warm := 0; warm < 2; warm++ {
				d, m := l.build(bcfg, sv, false)
				l.run(d, m, bcfg)
				sv = d.Salvage()
			}
			k := l.kernel(bcfg).NewSMKernel()
			m := l.img.NewMemory()

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d, err := NewSalvaged(smallGPU(), bcfg, k, m, sv)
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Run(0)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s %s: %v", bench, a.Name, err)
			}
			perCycle := float64(after.Mallocs-before.Mallocs) / float64(res.Cycles)
			t.Logf("%-9s %-8s %6d cycles %.4f allocs/cycle", bench, a.Name, res.Cycles, perCycle)
			if perCycle > allocGate {
				t.Errorf("%s %s: %.3f allocs/cycle over %d cycles, gate %.1f: a hot path allocates "+
					"(go run ./cmd/bowvet -pass hotpathalloc ./... names //bow:hotpath sites)",
					bench, a.Name, perCycle, res.Cycles, allocGate)
			}
		}
	}
}
