package gpu

import (
	"testing"

	"bow/internal/asm"
	"bow/internal/config"
	"bow/internal/core"
	"bow/internal/mem"
	"bow/internal/sm"
)

// TestAtomicsReduction: all threads atomically add into one counter —
// the result must be exact regardless of policy and warp interleaving.
func TestAtomicsReduction(t *testing.T) {
	src := `
.kernel reduce
  mov r0, %tid.x
  ld.param r1, [rz+0x0]
  atom.add.global r2, [r1+0x0], r0
  exit
`
	const grid, block = 2, 64
	for _, bcfg := range []core.Config{
		{Policy: core.PolicyBaseline},
		{IW: 3, Policy: core.PolicyWriteBack},
	} {
		_, m := runKernel(t, src, grid, block, []uint32{0x100}, nil, bcfg)
		got, _ := m.Read32(0x100)
		// Each CTA contributes sum(0..63); two CTAs.
		want := uint32(2 * (63 * 64 / 2))
		if got != want {
			t.Errorf("%v: counter = %d, want %d", bcfg.Policy, got, want)
		}
	}
}

// TestSharedMemoryBarrier: threads write shared memory, barrier, read a
// neighbour's slot — the classic shuffle that breaks without a working
// bar.sync.
func TestSharedMemoryBarrier(t *testing.T) {
	src := `
.kernel shuffle
  mov r0, %tid.x
  shl r1, r0, 0x2
  mul r2, r0, 0x3
  st.shared [r1+0x0], r2
  bar.sync
  mov r3, %ntid.x
  sub r4, r3, 0x1
  sub r5, r4, r0        // reversed index
  shl r5, r5, 0x2
  ld.shared r6, [r5+0x0]
  ld.param r7, [rz+0x0]
  mov r8, %ctaid.x
  mad r9, r8, r3, r0
  shl r9, r9, 0x2
  add r9, r7, r9
  st.global [r9+0x0], r6
  exit
`
	const grid, block = 2, 128
	prog, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewMemory()
	k := &sm.Kernel{Program: prog, GridDim: grid, BlockDim: block,
		SharedLen: block * 4, Params: []uint32{0x2000}}
	d, err := New(smallGPU(), core.Config{IW: 3, Policy: core.PolicyWriteBack}, k, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(0); err != nil {
		t.Fatal(err)
	}
	for cta := 0; cta < grid; cta++ {
		for tid := 0; tid < block; tid++ {
			got, _ := m.Read32(0x2000 + uint32(4*(cta*block+tid)))
			want := uint32(3 * (block - 1 - tid))
			if got != want {
				t.Fatalf("out[cta %d, tid %d] = %d, want %d", cta, tid, got, want)
			}
		}
	}
}

// TestPredicatedExecution: lanes masked off by a guard predicate keep
// their old register value.
func TestPredicatedExecution(t *testing.T) {
	src := `
.kernel pred
  mov r0, %tid.x
  mov r1, 0x64
  and r2, r0, 0x1
  setp.eq p0, r2, 0x1
  @p0 mov r1, 0xC8        // odd lanes only
  ld.param r3, [rz+0x0]
  shl r4, r0, 0x2
  add r4, r3, r4
  st.global [r4+0x0], r1
  exit
`
	for _, bcfg := range allPolicies() {
		_, m := runKernel(t, src, 1, 32, []uint32{0x3000}, nil, bcfg)
		for tid := 0; tid < 32; tid++ {
			got, _ := m.Read32(0x3000 + uint32(4*tid))
			want := uint32(0x64)
			if tid%2 == 1 {
				want = 0xC8
			}
			if got != want {
				t.Fatalf("%v: out[%d] = %#x, want %#x", bcfg.Policy, tid, got, want)
			}
		}
	}
}

// TestLocalMemory: per-thread local space is isolated between threads.
func TestLocalMemory(t *testing.T) {
	src := `
.kernel localmem
  mov r0, %tid.x
  st.local [rz+0x0], r0
  ld.local r1, [rz+0x0]
  ld.param r2, [rz+0x0]
  shl r3, r0, 0x2
  add r3, r2, r3
  st.global [r3+0x0], r1
  exit
`
	_, m := runKernel(t, src, 1, 64, []uint32{0x4000}, nil,
		core.Config{IW: 3, Policy: core.PolicyWriteBack})
	for tid := 0; tid < 64; tid++ {
		got, _ := m.Read32(0x4000 + uint32(4*tid))
		if got != uint32(tid) {
			t.Fatalf("local[tid %d] = %d (threads share local space?)", tid, got)
		}
	}
}

// TestKernelFaultReturnsError: an out-of-range parameter read must
// surface as an error, not a panic.
func TestKernelFaultReturnsError(t *testing.T) {
	src := `
.kernel bad
  ld.param r1, [rz+0x40]
  exit
`
	prog := asm.MustParse(src)
	k := &sm.Kernel{Program: prog, GridDim: 1, BlockDim: 32, Params: []uint32{1}}
	d, err := New(smallGPU(), core.Config{Policy: core.PolicyBaseline}, k, mem.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(0); err == nil {
		t.Error("out-of-range param read should fail the run")
	}
}

// TestMultiSM: work spreads over several SMs and still computes the
// right answer.
func TestMultiSM(t *testing.T) {
	g := config.SimDefault()
	g.NumSMs = 4
	prog := asm.MustParse(vecaddSrc)
	m := mem.NewMemory()
	const grid, block, n = 16, 64, 16 * 64
	for i := 0; i < n; i++ {
		m.Write32(0x1000+uint32(4*i), uint32(i))
		m.Write32(0x2000+uint32(4*i), uint32(2*i))
	}
	k := &sm.Kernel{Program: prog, GridDim: grid, BlockDim: block,
		Params: []uint32{0x1000, 0x2000, 0x3000}}
	d, err := New(g, core.Config{IW: 3, Policy: core.PolicyWriteBack}, k, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CTAsRetired != grid {
		t.Errorf("CTAs retired = %d, want %d", res.Stats.CTAsRetired, grid)
	}
	for i := 0; i < n; i++ {
		got, _ := m.Read32(0x3000 + uint32(4*i))
		if got != uint32(3*i) {
			t.Fatalf("C[%d] = %d, want %d", i, got, 3*i)
		}
	}
}

// TestLRRScheduler: the alternative scheduling policy must also compute
// correctly.
func TestLRRScheduler(t *testing.T) {
	g := smallGPU()
	g.Scheduler = "lrr"
	prog := asm.MustParse(loopSrc)
	m := mem.NewMemory()
	k := &sm.Kernel{Program: prog, GridDim: 2, BlockDim: 64, Params: []uint32{0x4000}}
	d, err := New(g, core.Config{IW: 3, Policy: core.PolicyWriteBack}, k, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(0); err != nil {
		t.Fatal(err)
	}
	for tid := 0; tid < 64; tid++ {
		got, _ := m.Read32(0x4000 + uint32(4*tid))
		if got != uint32(8*tid) {
			t.Fatalf("lrr: out[%d] = %d, want %d", tid, got, 8*tid)
		}
	}
}

// TestOversubscribedGrid: more CTAs than the SM can host at once forces
// sequential CTA scheduling.
func TestOversubscribedGrid(t *testing.T) {
	g := smallGPU()
	g.MaxTBsPerSM = 2
	prog := asm.MustParse(loopSrc)
	m := mem.NewMemory()
	const grid = 12
	k := &sm.Kernel{Program: prog, GridDim: grid, BlockDim: 64, Params: []uint32{0x4000}}
	d, err := New(g, core.Config{IW: 3, Policy: core.PolicyCompilerHints}, k, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CTAsRetired != grid {
		t.Errorf("retired %d CTAs, want %d", res.Stats.CTAsRetired, grid)
	}
}

// TestMaxCyclesGuard: a runaway kernel trips the cycle bound.
func TestMaxCyclesGuard(t *testing.T) {
	src := `
.kernel forever
L:
  bra L
`
	prog := asm.MustParse(src)
	k := &sm.Kernel{Program: prog, GridDim: 1, BlockDim: 32}
	d, err := New(smallGPU(), core.Config{Policy: core.PolicyBaseline}, k, mem.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(2000); err == nil {
		t.Error("infinite loop not caught by cycle bound")
	}
}

// TestSelInstruction end to end.
func TestSelInstruction(t *testing.T) {
	src := `
.kernel selk
  mov r0, %tid.x
  setp.lt p0, r0, 0x10
  mov r1, 0xAAA
  mov r2, 0xBBB
  sel r3, r1, r2, p0
  ld.param r4, [rz+0x0]
  shl r5, r0, 0x2
  add r5, r4, r5
  st.global [r5+0x0], r3
  exit
`
	_, m := runKernel(t, src, 1, 32, []uint32{0x5000}, nil,
		core.Config{IW: 3, Policy: core.PolicyCompilerHints})
	for tid := 0; tid < 32; tid++ {
		got, _ := m.Read32(0x5000 + uint32(4*tid))
		want := uint32(0xAAA)
		if tid >= 16 {
			want = 0xBBB
		}
		if got != want {
			t.Fatalf("sel out[%d] = %#x, want %#x", tid, got, want)
		}
	}
}

// TestNestedDivergence: two levels of divergent branches reconverge
// correctly.
func TestNestedDivergence(t *testing.T) {
	src := `
.kernel nested
  mov r0, %tid.x
  and r1, r0, 0x1
  and r2, r0, 0x2
  mov r3, 0x0
  setp.eq p0, r1, 0x0
  @p0 bra EVEN
  // odd
  setp.eq p1, r2, 0x0
  @p1 bra ODD_A
  add r3, r3, 0x3       // tid%4 == 3
  bra JOIN
ODD_A:
  add r3, r3, 0x1       // tid%4 == 1
  bra JOIN
EVEN:
  setp.eq p1, r2, 0x0
  @p1 bra EVEN_A
  add r3, r3, 0x2       // tid%4 == 2
  bra JOIN
EVEN_A:
  add r3, r3, 0x4       // tid%4 == 0
JOIN:
  ld.param r4, [rz+0x0]
  shl r5, r0, 0x2
  add r5, r4, r5
  st.global [r5+0x0], r3
  exit
`
	for _, bcfg := range allPolicies() {
		_, m := runKernel(t, src, 1, 32, []uint32{0x6000}, nil, bcfg)
		want := []uint32{4, 1, 2, 3}
		for tid := 0; tid < 32; tid++ {
			got, _ := m.Read32(0x6000 + uint32(4*tid))
			if got != want[tid%4] {
				t.Fatalf("%v: out[%d] = %d, want %d", bcfg.Policy, tid, got, want[tid%4])
			}
		}
	}
}
