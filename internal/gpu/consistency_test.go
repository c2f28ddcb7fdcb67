package gpu

import (
	"testing"

	"bow/internal/asm"
	"bow/internal/core"
	"bow/internal/mem"
	"bow/internal/policy"
	"bow/internal/sm"
)

// TestTrafficConsistency cross-checks the two independent traffic
// accountings: every RF read the window engine planned must eventually
// be served by a bank (regfile stats), and every RF write the engine
// emitted must land in a bank. The engine counts at decision time, the
// register file at service time — they must agree at the end of a run.
func TestTrafficConsistency(t *testing.T) {
	for _, bcfg := range allPolicies() {
		res, _ := runKernel(t, loopSrc, 4, 128, []uint32{0x4000}, nil, bcfg)
		if res.RF.Reads != res.Engine.RFReads {
			t.Errorf("%v: banks served %d reads, engine planned %d",
				bcfg.Policy, res.RF.Reads, res.Engine.RFReads)
		}
		if res.RF.Writes != res.Engine.RFWrites {
			t.Errorf("%v: banks served %d writes, engine emitted %d",
				bcfg.Policy, res.RF.Writes, res.Engine.RFWrites)
		}
		// Total reads must be policy-invariant; compare against baseline.
	}

	// The invariance sweep below must keep covering every architecture
	// the simulator models — a roster regression here would silently
	// shrink the strongest cross-policy accounting check.
	covered := map[*policy.Arch]bool{}
	for _, bcfg := range allPolicies() {
		if a, ok := policy.Of(bcfg); ok {
			covered[a] = true
		}
	}
	for i := range policy.Roster {
		if a := &policy.Roster[i]; !covered[a] {
			t.Errorf("allPolicies omits %s; the traffic invariants below no longer race it", a.Name)
		}
	}

	// Total operand reads and destination writes must be identical
	// across policies (same dynamic instruction stream).
	var totReads, totWrites int64
	for i, bcfg := range allPolicies() {
		res, _ := runKernel(t, loopSrc, 4, 128, []uint32{0x4000}, nil, bcfg)
		r := res.Engine.RFReads + res.Engine.BypassedRead
		w := res.Engine.TotalWrites()
		if i == 0 {
			totReads, totWrites = r, w
			continue
		}
		if r != totReads {
			t.Errorf("%v: total reads %d != baseline %d", bcfg.Policy, r, totReads)
		}
		if w != totWrites {
			t.Errorf("%v: total writes %d != baseline %d", bcfg.Policy, w, totWrites)
		}
	}
}

// TestPartialWarp: a block size that is not a multiple of 32 leaves the
// tail warp partially populated; inactive lanes must not write memory.
func TestPartialWarp(t *testing.T) {
	src := `
.kernel partial
  mov r0, %tid.x
  ld.param r1, [rz+0x0]
  shl r2, r0, 0x2
  add r2, r1, r2
  st.global [r2+0x0], r0
  exit
`
	const block = 48 // 1.5 warps
	_, m := runKernel(t, src, 1, block, []uint32{0x7000}, nil,
		core.Config{IW: 3, Policy: core.PolicyWriteBack})
	for tid := 0; tid < block; tid++ {
		got, _ := m.Read32(0x7000 + uint32(4*tid))
		if got != uint32(tid) {
			t.Errorf("out[%d] = %d", tid, got)
		}
	}
	// Lanes 48..63 are inactive: their slots must remain zero.
	for tid := block; tid < 64; tid++ {
		got, _ := m.Read32(0x7000 + uint32(4*tid))
		if got != 0 {
			t.Errorf("inactive lane %d wrote %d", tid, got)
		}
	}
}

// TestIPCSweepSanity: simulated cycles must be deterministic for a
// given config — two identical runs give identical cycle counts.
func TestDeterminism(t *testing.T) {
	run := func() int64 {
		prog := asm.MustParse(loopSrc)
		m := mem.NewMemory()
		k := &sm.Kernel{Program: prog, GridDim: 4, BlockDim: 128, Params: []uint32{0x4000}}
		d, err := New(smallGPU(), core.Config{IW: 3, Policy: core.PolicyWriteBack}, k, m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	a := run()
	for i := 0; i < 5; i++ {
		if b := run(); b != a {
			t.Fatalf("nondeterministic cycle count: %d vs %d", a, b)
		}
	}
}

// TestEnergyCountersNonNegativeAndBounded: BOC access counts can only
// be nonzero for bypassing policies.
func TestEnergyCounters(t *testing.T) {
	base, _ := runKernel(t, loopSrc, 2, 64, []uint32{0x4000}, nil,
		core.Config{Policy: core.PolicyBaseline})
	if base.Energy.BOCReads != 0 || base.Energy.BOCWrites != 0 {
		t.Errorf("baseline touched the BOC: %+v", base.Energy)
	}
	bow, _ := runKernel(t, loopSrc, 2, 64, []uint32{0x4000}, nil,
		core.Config{IW: 3, Policy: core.PolicyWriteBack})
	if bow.Energy.BOCReads == 0 || bow.Energy.BOCWrites == 0 {
		t.Error("BOW never touched the BOC")
	}
	if bow.Energy.RFReads >= base.Energy.RFReads {
		t.Error("BOW did not reduce RF reads")
	}
}
