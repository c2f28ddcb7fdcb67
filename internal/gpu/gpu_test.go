package gpu

import (
	"testing"

	"bow/internal/artifact"
	"bow/internal/config"
	"bow/internal/core"
	"bow/internal/mem"
	"bow/internal/policy"
	"bow/internal/sm"
	"bow/internal/workloads"
)

const vecaddSrc = `
.kernel vecadd
  mov r0, %tid.x
  mov r2, %ctaid.x
  mov r3, %ntid.x
  mad r4, r2, r3, r0
  shl r5, r4, 0x2
  ld.param r6, [rz+0x0]
  ld.param r7, [rz+0x4]
  ld.param r8, [rz+0x8]
  add r9, r6, r5
  add r10, r7, r5
  add r11, r8, r5
  ld.global r12, [r9+0x0]
  ld.global r13, [r10+0x0]
  add r14, r12, r13
  st.global [r11+0x0], r14
  exit
`

const loopSrc = `
.kernel looper
  mov r0, %tid.x
  mov r1, 0x0          // acc
  mov r2, 0x0          // i
  mov r3, 0x8          // n
L0:
  add r1, r1, r0
  add r2, r2, 0x1
  setp.lt p0, r2, r3
  @p0 bra L0
  mov r4, %ctaid.x
  mov r5, %ntid.x
  mad r6, r4, r5, r0
  shl r7, r6, 0x2
  ld.param r8, [rz+0x0]
  add r9, r8, r7
  st.global [r9+0x0], r1
  exit
`

const divergeSrc = `
.kernel diverge
  mov r0, %tid.x
  and r1, r0, 0x1
  setp.eq p0, r1, 0x0
  mov r2, 0x0
  @p0 bra EVEN
  mov r2, 0x111        // odd lanes
  bra JOIN
EVEN:
  mov r2, 0x222        // even lanes
JOIN:
  mov r4, %ctaid.x
  mov r5, %ntid.x
  mad r6, r4, r5, r0
  shl r7, r6, 0x2
  ld.param r8, [rz+0x0]
  add r9, r8, r7
  st.global [r9+0x0], r2
  exit
`

func smallGPU() config.GPU {
	g := config.SimDefault()
	g.NumSMs = 1
	return g
}

// prepareFor builds the launch kernel of src under bcfg the way every
// engine path does: parsed, then run through the annotation pass bcfg's
// policy consumes (artifact.PassForPolicy).
func prepareFor(t *testing.T, src string, grid, block int, params []uint32, bcfg core.Config) *sm.Kernel {
	t.Helper()
	b := &workloads.Benchmark{Name: "test", Source: src, GridDim: grid, BlockDim: block, Params: params}
	hints, param := artifact.PassForPolicy(bcfg)
	pk, err := artifact.BuildKernelFor(b, artifact.KeyFor(b.Name, false, hints, param))
	if err != nil {
		t.Fatalf("prepare %v: %v\n%s", bcfg.Policy, err, src)
	}
	return pk.NewSMKernel()
}

func runKernel(t *testing.T, src string, grid, block int, params []uint32,
	init func(*mem.Memory), bcfg core.Config) (*Result, *mem.Memory) {
	t.Helper()
	m := mem.NewMemory()
	if init != nil {
		init(m)
	}
	d, err := New(smallGPU(), bcfg, prepareFor(t, src, grid, block, params, bcfg), m)
	if err != nil {
		t.Fatalf("device: %v", err)
	}
	res, err := d.Run(0)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, m
}

// rowConfig is roster architecture name's engine config at the given
// buffer capacity (0 = the row's default; windowed rows run IW 3).
func rowConfig(name string, capacity int) core.Config {
	a, ok := policy.Lookup(name)
	if !ok {
		panic("unknown architecture " + name)
	}
	cfg, err := a.Config(policy.DefaultIW, capacity, false, false)
	if err != nil {
		panic(err)
	}
	return cfg
}

// allPolicies is every roster architecture at its default design point,
// baseline first, plus stress points: a half-size BOC, small and large
// windows, and tiny rival buffers that force capacity eviction (carfc)
// and interval splitting (ltrf).
func allPolicies() []core.Config {
	var out []core.Config
	for i := range policy.Roster {
		cfg, err := policy.Roster[i].DefaultConfig()
		if err != nil {
			panic(err)
		}
		out = append(out, cfg)
	}
	return append(out,
		core.Config{IW: 3, Capacity: 6, Policy: core.PolicyCompilerHints},
		core.Config{IW: 2, Policy: core.PolicyWriteBack},
		core.Config{IW: 5, Policy: core.PolicyWriteBack},
		rowConfig(policy.CARFC, 2),
		rowConfig(policy.LTRF, 3),
	)
}

func TestVecAddAllPolicies(t *testing.T) {
	const grid, block, n = 4, 64, 4 * 64
	baseA, baseB, baseC := uint32(0x1000), uint32(0x2000), uint32(0x3000)
	init := func(m *mem.Memory) {
		for i := 0; i < n; i++ {
			m.Write32(baseA+uint32(4*i), uint32(i*3))
			m.Write32(baseB+uint32(4*i), uint32(1000+i))
		}
	}
	for _, bcfg := range allPolicies() {
		res, m := runKernel(t, vecaddSrc, grid, block, []uint32{baseA, baseB, baseC}, init, bcfg)
		for i := 0; i < n; i++ {
			got, _ := m.Read32(baseC + uint32(4*i))
			want := uint32(i*3) + uint32(1000+i)
			if got != want {
				t.Fatalf("%v: C[%d] = %d, want %d", bcfg.Policy, i, got, want)
			}
		}
		if res.Stats.Executed == 0 || res.Cycles == 0 {
			t.Fatalf("%v: empty run stats %+v", bcfg.Policy, res.Stats)
		}
	}
}

func TestLoopKernelAllPolicies(t *testing.T) {
	const grid, block, n = 2, 64, 2 * 64
	base := uint32(0x4000)
	for _, bcfg := range allPolicies() {
		_, m := runKernel(t, loopSrc, grid, block, []uint32{base}, nil, bcfg)
		for cta := 0; cta < grid; cta++ {
			for tid := 0; tid < block; tid++ {
				got, _ := m.Read32(base + uint32(4*(cta*block+tid)))
				want := uint32(8 * tid) // acc = tid summed 8 times
				if got != want {
					t.Fatalf("%v: out[cta %d tid %d] = %d, want %d", bcfg.Policy, cta, tid, got, want)
				}
			}
		}
	}
}

func TestDivergenceAllPolicies(t *testing.T) {
	const grid, block = 1, 64
	base := uint32(0x5000)
	for _, bcfg := range allPolicies() {
		res, m := runKernel(t, divergeSrc, grid, block, []uint32{base}, nil, bcfg)
		for tid := 0; tid < block; tid++ {
			got, _ := m.Read32(base + uint32(4*tid))
			want := uint32(0x222)
			if tid%2 == 1 {
				want = 0x111
			}
			if got != want {
				t.Fatalf("%v: out[%d] = %#x, want %#x", bcfg.Policy, tid, got, want)
			}
		}
		if res.Stats.Divergences == 0 {
			t.Errorf("%v: expected divergent branches", bcfg.Policy)
		}
	}
}

// TestBypassImprovesIPC: the headline claim — BOW must beat baseline IPC
// and cut RF reads substantially on a register-reuse-heavy kernel.
func TestBypassImprovesIPC(t *testing.T) {
	const grid, block = 8, 128
	base := uint32(0x4000)
	baseRes, _ := runKernel(t, loopSrc, grid, block, []uint32{base}, nil,
		core.Config{Policy: core.PolicyBaseline})
	bowRes, _ := runKernel(t, loopSrc, grid, block, []uint32{base}, nil,
		core.Config{IW: 3, Policy: core.PolicyWriteBack})

	if bowRes.Stats.IPC() <= baseRes.Stats.IPC() {
		t.Errorf("BOW IPC %.3f not better than baseline %.3f",
			bowRes.Stats.IPC(), baseRes.Stats.IPC())
	}
	if frac := bowRes.Engine.ReadBypassFrac(); frac < 0.25 {
		t.Errorf("read bypass fraction %.2f too low for reuse-heavy loop", frac)
	}
	if bowRes.Engine.RFReads >= baseRes.Engine.RFReads {
		t.Errorf("BOW RF reads %d not below baseline %d",
			bowRes.Engine.RFReads, baseRes.Engine.RFReads)
	}
}

// TestRegisterOracle: final effective register state must be identical
// across all value-preserving policies (baseline, write-through,
// write-back, ltrf — which drains every dirty value at interval
// boundaries — and scrf, whose compression is accounting-only) —
// bit-exact functional equivalence. Policies with compiler-directed
// dead drops (bow-wr, carfc) legitimately discard *dead* transient
// values (the paper never allocates them in the RF), so they are
// covered by the memory-state oracle in the other tests instead.
func TestRegisterOracle(t *testing.T) {
	const grid, block = 2, 64
	base := uint32(0x4000)
	policies := []core.Config{
		{Policy: core.PolicyBaseline},
		{IW: 3, Policy: core.PolicyWriteThrough},
		{IW: 3, Policy: core.PolicyWriteBack},
		{IW: 2, Policy: core.PolicyWriteBack},
		{IW: 5, Policy: core.PolicyWriteBack},
		{IW: 3, Capacity: 3, Policy: core.PolicyWriteBack}, // tiny BOC stress
		rowConfig(policy.LTRF, 0),
		rowConfig(policy.LTRF, 3), // tiny buffer: frequent capacity-split intervals
		rowConfig(policy.SCRF, 0),
	}
	var ref map[[2]int][]core.Value
	for i, bcfg := range policies {
		k := prepareFor(t, loopSrc, grid, block, []uint32{base}, bcfg)
		d, err := New(smallGPU(), bcfg, k, mem.NewMemory())
		if err != nil {
			t.Fatal(err)
		}
		d.CaptureRegs = true
		res, err := d.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res.RegSnapshots
			if len(ref) != grid*block/32 {
				t.Fatalf("expected %d warp snapshots, got %d", grid*block/32, len(ref))
			}
			continue
		}
		for key, want := range ref {
			got, ok := res.RegSnapshots[key]
			if !ok {
				t.Fatalf("%v: missing snapshot for %v", bcfg.Policy, key)
			}
			for r := range want {
				if got[r] != want[r] {
					t.Fatalf("%v: cta %d warp %d r%d = %v, want %v",
						bcfg.Policy, key[0], key[1], r, got[r][0], want[r][0])
				}
			}
		}
	}
}
