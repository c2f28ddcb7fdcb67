package sm

import (
	"fmt"
	"testing"

	"bow/internal/asm"
	"bow/internal/compiler"
	"bow/internal/config"
	"bow/internal/core"
	"bow/internal/mem"
	"bow/internal/policy"
	"bow/internal/workloads"
)

// TestIssueStateInvariant holds the fast issue scan's per-slot cache to
// a from-scratch evaluation after every cycle, over every hand-written
// kernel under every roster architecture. The structural part must be
// exact: a slot is ineligible precisely when the warp has no resident
// CTA, is done or stalled, has both collectors busy, or has no SIMT
// frame left. A blocked verdict must be sound: the scoreboard still
// refuses the warp's top instruction. (A candidate may turn out to be
// hazard-blocked — the verdict is recorded lazily, when the scan asks.)
// The slot masks must equal the bytes they index, and the collector-
// port worklist must hold exactly the collectors with a port step due.
// An invalidation site that goes missing leaves a stale byte, bit or
// list entry behind, and this test names the slot and cycle where it
// first shows.
func TestIssueStateInvariant(t *testing.T) {
	benches := append(workloads.All(), workloads.Extra()...)
	if testing.Short() {
		benches = benches[:3]
	}
	benches = append(benches,
		&workloads.Benchmark{Name: "FALLOFF", Source: falloffKernel, GridDim: 2, BlockDim: 64},
		&workloads.Benchmark{Name: "PARTEXIT", Source: partExitKernel, GridDim: 2, BlockDim: 64},
	)
	for i := range policy.Roster {
		a := &policy.Roster[i]
		bcfg, err := a.DefaultConfig()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range benches {
			t.Run(a.Name+"/"+b.Name, func(t *testing.T) {
				t.Parallel()
				runIssueStateInvariant(t, a, bcfg, b)
			})
		}
	}
}

// falloffKernel runs off the end of its code with a load in flight: the
// scan's pc-past-end exit finds the warp busy and defers warpExited, so
// only that path's own refresh retires the slot's candidate state.
const falloffKernel = `
.kernel falloff
  mov r0, %tid.x
  shl r1, r0, 0x2
  ld.global r2, [r1+0x1000]
`

// partExitKernel exits half of each warp's lanes early. The survivors
// leave the exit unstalled with work left, which only the evExitRet
// apply's refresh turns back into a candidate; the hand-written suite
// exits whole warps only.
const partExitKernel = `
.kernel partexit
  mov r0, %tid.x
  and r1, r0, 0x1f
  setp.ge p0, r1, 0x10
  @p0 exit
  add r2, r0, r0
  shl r3, r0, 0x2
  st.global [r3+0x2000], r2
  exit
`

// runIssueStateInvariant launches b's whole grid on one SM, checks the
// cache after every cycle, and finally runs the benchmark's functional
// self-check so the run is known to be a real one.
func runIssueStateInvariant(t *testing.T, a *policy.Arch, bcfg core.Config, b *workloads.Benchmark) {
	prog, err := b.ParseProgram()
	if err != nil {
		t.Fatal(err)
	}
	if err := annotateFor(prog, a, bcfg); err != nil {
		t.Fatal(err)
	}
	k := &Kernel{Program: prog, GridDim: b.GridDim, BlockDim: b.BlockDim,
		SharedLen: b.SharedLen, Params: b.Params}
	if err := k.Prepare(); err != nil {
		t.Fatal(err)
	}
	g := config.SimDefault()
	g.NumSMs = 1
	l2, err := mem.NewCache("L2", g.L2SizeKB*1024, g.L2LineBytes, g.L2Assoc)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewMemory()
	if b.Init != nil {
		if err := b.Init(m); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(0, g, bcfg, k, m, l2)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for cycle := 0; next < k.GridDim || !s.Idle(); cycle++ {
		if cycle > 2_000_000 {
			t.Fatalf("no progress after %d cycles", cycle)
		}
		for next < k.GridDim && s.CanAcceptCTA() {
			if err := s.AssignCTA(next); err != nil {
				t.Fatal(err)
			}
			next++
		}
		s.Cycle()
		if err := checkIssueStates(s); err != nil {
			t.Fatalf("cycle %d: %v", s.cycle, err)
		}
	}
	if b.Check != nil {
		if err := b.Check(m); err != nil {
			t.Fatalf("functional check: %v", err)
		}
	}
}

// checkIssueStates compares every slot's cached byte with the warp's
// state, evaluated without side effects (peekTop, not top, so the
// check cannot reshape the SIMT stack it inspects), each mask bit with
// its byte, and the port worklist with the collectors.
func checkIssueStates(s *SM) error {
	code := s.kernel.Program.Code
	if err := checkPortWorklist(s); err != nil {
		return err
	}
	for _, w := range s.warps {
		got := s.issueState[w.slot]
		bit := uint64(1) << uint(w.slot)
		if (s.candMask&bit != 0) != (got == issueCandidate) ||
			(s.blockMask&bit != 0) != (got == issueBlocked) {
			return fmt.Errorf("slot %d cached %d, but its mask bits are candidate %v blocked %v",
				w.slot, got, s.candMask&bit != 0, s.blockMask&bit != 0)
		}
		top := w.peekTop()
		eligible := w.ctaID >= 0 && !w.done && !w.stalled &&
			len(w.collectors) < collectorsPerWarp && top != nil
		switch {
		case eligible && got == issueIneligible:
			return fmt.Errorf("slot %d cached ineligible, but the warp can issue", w.slot)
		case !eligible && got != issueIneligible:
			return fmt.Errorf("slot %d cached %d, but the warp cannot issue "+
				"(cta %d done %v stalled %v collectors %d frame %v)",
				w.slot, got, w.ctaID, w.done, w.stalled, len(w.collectors), top != nil)
		case got == issueBlocked && top.pc >= len(code):
			return fmt.Errorf("slot %d cached blocked past the end of the program", w.slot)
		case got == issueBlocked && s.sb.CanIssue(w.slot, &code[top.pc]):
			return fmt.Errorf("slot %d cached blocked, but the scoreboard admits pc %d", w.slot, top.pc)
		}
	}
	return nil
}

// annotateFor runs the compiler pass a's kernels are prepared with, as
// the artifact layer does for a default-config spec of that row.
func annotateFor(prog *asm.Program, a *policy.Arch, bcfg core.Config) error {
	var err error
	switch a.Pass {
	case policy.PassNone:
	case policy.PassBOWWR:
		_, err = compiler.Annotate(prog, a.PassParam(bcfg))
	case policy.PassCARFC:
		_, err = compiler.AnnotateCARFC(prog)
	case policy.PassLTRF:
		_, err = compiler.AnnotateLTRF(prog, a.PassParam(bcfg))
	case policy.PassSCRF:
		_, err = compiler.AnnotateSCRF(prog)
	default:
		err = fmt.Errorf("unknown compiler pass %q", a.Pass)
	}
	return err
}

// checkPortWorklist holds portq to its definition: each entry once, and
// exactly the collectors with a buffered delivery or with every operand
// in hand but not yet ready.
func checkPortWorklist(s *SM) error {
	listed := map[*inflight]bool{}
	for _, f := range s.portq {
		if listed[f] {
			return fmt.Errorf("port worklist holds a collector of slot %d twice", f.warp.slot)
		}
		listed[f] = true
	}
	for _, w := range s.warps {
		for _, f := range w.collectors {
			due := f.delivLen > 0 || (!f.ready && f.collected())
			if due != listed[f] {
				return fmt.Errorf("slot %d collector (pc %d, deliveries %d, ready %v, collected %v): "+
					"port step due %v, listed %v",
					w.slot, f.in.PC, f.delivLen, f.ready, f.collected(), due, listed[f])
			}
			delete(listed, f)
		}
	}
	if len(listed) > 0 {
		return fmt.Errorf("port worklist holds %d records that are no collectors", len(listed))
	}
	return nil
}
