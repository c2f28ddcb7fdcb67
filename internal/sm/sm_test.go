package sm

import (
	"testing"

	"bow/internal/asm"
	"bow/internal/config"
	"bow/internal/core"
	"bow/internal/isa"
	"bow/internal/mem"
)

func testSM(t *testing.T, src string, grid, block int, params []uint32, bcfg core.Config) *SM {
	t.Helper()
	prog, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	k := &Kernel{Program: prog, GridDim: grid, BlockDim: block, Params: params}
	if err := k.Prepare(); err != nil {
		t.Fatal(err)
	}
	g := config.SimDefault()
	g.NumSMs = 1
	l2, err := mem.NewCache("L2", g.L2SizeKB*1024, g.L2LineBytes, g.L2Assoc)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(0, g, bcfg, k, mem.NewMemory(), l2)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const tinyKernel = `
.kernel tiny
  mov r1, 0x1
  add r2, r1, r1
  exit
`

func TestKernelPrepare(t *testing.T) {
	prog := asm.MustParse(tinyKernel)
	k := &Kernel{Program: prog, GridDim: 1, BlockDim: 64}
	if k.WarpsPerCTA() != 2 {
		t.Errorf("WarpsPerCTA = %d, want 2", k.WarpsPerCTA())
	}
	if err := k.Prepare(); err != nil {
		t.Fatal(err)
	}
	if k.Reconv == nil {
		t.Error("Prepare did not fill Reconv")
	}
	k2 := &Kernel{Program: prog, GridDim: 1, BlockDim: 65}
	if k2.WarpsPerCTA() != 3 {
		t.Errorf("partial warp not counted: %d", k2.WarpsPerCTA())
	}
}

func TestCTAAssignmentAccounting(t *testing.T) {
	s := testSM(t, tinyKernel, 4, 128, nil, core.Config{Policy: core.PolicyBaseline})
	if !s.CanAcceptCTA() {
		t.Fatal("fresh SM refuses work")
	}
	for i := 0; i < 4; i++ {
		if err := s.AssignCTA(i); err != nil {
			t.Fatal(err)
		}
	}
	if s.freeWarpSlots != 32-16 {
		t.Errorf("free warp slots = %d, want 16", s.freeWarpSlots)
	}
	if s.BusyCTAs() != 4 || s.Idle() {
		t.Error("occupancy accounting wrong")
	}
	// Run to completion; slots must come back.
	for i := 0; i < 20000 && !s.Idle(); i++ {
		s.Cycle()
	}
	if !s.Idle() || s.freeWarpSlots != 32 || s.freeTBSlots != 16 {
		t.Errorf("resources not released: warps %d, tbs %d", s.freeWarpSlots, s.freeTBSlots)
	}
	if s.Stats().CTAsRetired != 4 {
		t.Errorf("retired = %d", s.Stats().CTAsRetired)
	}
}

func TestRejectOverAssignment(t *testing.T) {
	s := testSM(t, tinyKernel, 64, 1024, nil, core.Config{Policy: core.PolicyBaseline})
	if err := s.AssignCTA(0); err != nil {
		t.Fatal(err)
	}
	// 1024 threads = 32 warps: the SM is full.
	if s.CanAcceptCTA() {
		t.Error("full SM claims to accept more work")
	}
	if err := s.AssignCTA(1); err == nil {
		t.Error("over-assignment accepted")
	}
}

func TestFullMask(t *testing.T) {
	if m := fullMask(64, 0); m != 0xFFFFFFFF {
		t.Errorf("full warp mask = %#x", m)
	}
	if m := fullMask(48, 1); m != 0x0000FFFF {
		t.Errorf("partial warp mask = %#x, want lower 16 lanes", m)
	}
	if m := fullMask(32, 1); m != 0 {
		t.Errorf("out-of-range warp mask = %#x, want 0", m)
	}
}

func TestSIMTStack(t *testing.T) {
	w := &warpCtx{}
	w.stack = append(w.stack, simtEntry{pc: 0, rpc: -1, mask: 0xFF})

	// Reconverged frame pops.
	w.stack = append(w.stack, simtEntry{pc: 10, rpc: 10, mask: 0xF0})
	top := w.top()
	if top == nil || top.mask != 0xFF {
		t.Fatalf("reconverged frame not popped: %+v", top)
	}

	// Empty-mask frame pops.
	w.stack = append(w.stack, simtEntry{pc: 5, rpc: 9, mask: 0})
	if top := w.top(); top == nil || top.pc != 0 {
		t.Fatalf("empty frame not popped: %+v", top)
	}

	// exitLanes drains every frame.
	w.stack = append(w.stack, simtEntry{pc: 5, rpc: 9, mask: 0x0F})
	w.exitLanes(0xFF)
	if w.top() != nil {
		t.Error("exitLanes left live frames")
	}
}

func TestPredBits(t *testing.T) {
	w := &warpCtx{}
	w.preds[2] = 0x0000FFFF
	if w.predBits(2, false) != 0x0000FFFF {
		t.Error("positive guard wrong")
	}
	if w.predBits(2, true) != 0xFFFF0000 {
		t.Error("negated guard wrong")
	}
}

func TestSpecialValues(t *testing.T) {
	s := testSM(t, tinyKernel, 4, 128, nil, core.Config{Policy: core.PolicyBaseline})
	if err := s.AssignCTA(3); err != nil {
		t.Fatal(err)
	}
	var w *warpCtx
	for _, ww := range s.warps {
		if ww.ctaID == 3 && ww.warpInCTA == 1 {
			w = ww
		}
	}
	if w == nil {
		t.Fatal("warp 1 of CTA 3 not found")
	}
	special := func(sp isa.Special) coreValue {
		// Start from garbage: specialValue must write every lane.
		var out coreValue
		for l := range out {
			out[l] = 0xDEAD
		}
		s.specialValue(w, sp, &out)
		return out
	}
	tid := special(isa.SpecTidX)
	if tid[0] != 32 || tid[31] != 63 {
		t.Errorf("tid lanes = %d..%d, want 32..63", tid[0], tid[31])
	}
	if v := special(isa.SpecCtaidX); v[0] != 3 {
		t.Errorf("ctaid = %d", v[0])
	}
	if v := special(isa.SpecNtidX); v[0] != 128 {
		t.Errorf("ntid = %d", v[0])
	}
	if v := special(isa.SpecNctaidX); v[0] != 4 {
		t.Errorf("nctaid = %d", v[0])
	}
	if v := special(isa.SpecLaneID); v[5] != 5 || v[31] != 31 {
		t.Errorf("laneid = %d", v[5])
	}
	if v := special(isa.SpecWarpID); v[0] != 1 || v[31] != 1 {
		t.Errorf("warpid = %d", v[0])
	}
}

func TestInflightDeliveries(t *testing.T) {
	in := &isa.Instruction{Op: isa.OpAdd, HasDst: true, Dst: 3, PredReg: isa.PredTrue,
		Srcs: [3]isa.Operand{isa.Reg(1), isa.Reg(1), isa.Reg(2)}, NSrc: 3}
	// A delivery puts the collector on its SM's port worklist, so the
	// record needs a warp.
	s := testSM(t, tinyKernel, 1, 32, nil, core.Config{Policy: core.PolicyBaseline})
	f := &inflight{in: in, warp: s.warps[0], outstanding: 2}

	var v1 coreValue
	v1[0] = 11
	f.pushDelivery(f.slotMask(1), &v1)
	var v2 coreValue
	v2[0] = 22
	f.pushDelivery(f.slotMask(2), &v2)
	if len(s.portq) != 1 || s.portq[0] != f {
		t.Fatalf("port worklist after two deliveries = %v, want just the collector once", s.portq)
	}

	if f.collected() {
		t.Fatal("collected before consuming deliveries")
	}
	f.consumeDelivery() // one per cycle: single port
	if f.collected() {
		t.Fatal("collected after one of two deliveries")
	}
	f.consumeDelivery()
	if !f.collected() {
		t.Fatal("not collected after all deliveries")
	}
	// r1 feeds slots 0 and 1; r2 feeds slot 2.
	if f.srcVals[0][0] != 11 || f.srcVals[1][0] != 11 || f.srcVals[2][0] != 22 {
		t.Errorf("operand slots = %d/%d/%d", f.srcVals[0][0], f.srcVals[1][0], f.srcVals[2][0])
	}
}

func TestEffectiveValuePrecedence(t *testing.T) {
	s := testSM(t, tinyKernel, 1, 32, nil, core.Config{IW: 3, Policy: core.PolicyWriteBack})
	if err := s.AssignCTA(0); err != nil {
		t.Fatal(err)
	}
	var rf coreValue
	rf[0] = 7
	s.rf.Poke(0, 5, &rf)
	if got := s.effectiveValue(0, 5); got[0] != 7 {
		t.Errorf("RF fallback = %d", got[0])
	}
	// A window copy shadows the RF copy.
	in := &isa.Instruction{Op: isa.OpMov, HasDst: true, Dst: 5, PredReg: isa.PredTrue}
	var plan core.Plan
	s.engines[0].Advance(in, &plan)
	var boc coreValue
	boc[0] = 9
	s.engines[0].Writeback(5, &boc, isa.WBBoth, plan.Seq)
	if got := s.effectiveValue(0, 5); got[0] != 9 {
		t.Errorf("window copy not preferred: %d", got[0])
	}
	if got := s.effectiveValue(0, isa.RegZero); got[0] != 0 {
		t.Error("RZ must read as zero")
	}
}

func TestRemoveCollector(t *testing.T) {
	s := &SM{issueState: make([]uint8, 1), busyCollectors: 2}
	w := &warpCtx{}
	a := &inflight{warp: w}
	b := &inflight{warp: w}
	w.collectors = []*inflight{a, b}
	s.removeCollector(a)
	if len(w.collectors) != 1 || w.collectors[0] != b {
		t.Errorf("removeCollector wrong: %v", w.collectors)
	}
	s.removeCollector(a) // absent: no-op
	if len(w.collectors) != 1 || s.busyCollectors != 1 {
		t.Error("removing absent inflight changed the list or the pool")
	}
}
