package gpu

import (
	"fmt"
	"math/rand"
	"testing"

	"bow/internal/core"
	"bow/internal/mem"
	"bow/internal/policy"
)

// genKernel emits a random but well-formed kernel: a prologue computing
// the thread's output address, a random ALU body over a small register
// pool (r20..r27), an optional uniform loop, and a store of the final
// accumulator. All operations are integer so results are exact.
func genKernel(r *rand.Rand) string {
	body := ""
	ops := []string{"add", "sub", "mul", "xor", "and", "or", "min", "max"}
	reg := func() string { return fmt.Sprintf("r%d", 20+r.Intn(8)) }
	for i := 0; i < 5+r.Intn(20); i++ {
		op := ops[r.Intn(len(ops))]
		if r.Intn(3) == 0 {
			body += fmt.Sprintf("  %s %s, %s, 0x%x\n", op, reg(), reg(), r.Intn(256))
		} else {
			body += fmt.Sprintf("  %s %s, %s, %s\n", op, reg(), reg(), reg())
		}
	}
	loop := ""
	if r.Intn(2) == 0 {
		loop = fmt.Sprintf(`
  mov r10, 0x0
GL:
%s  add r10, r10, 0x1
  setp.lt p0, r10, 0x%x
  @p0 bra GL
`, body, 2+r.Intn(6))
	} else {
		loop = body
	}
	return fmt.Sprintf(`
.kernel fuzz
  mov r0, %%tid.x
  mov r1, %%ctaid.x
  mov r2, %%ntid.x
  mad r3, r1, r2, r0
  shl r4, r3, 0x2
  ld.param r5, [rz+0x0]
  add r5, r5, r4
  // seed the pool from the thread id
  mov r20, r3
  add r21, r3, 0x11
  mul r22, r3, 0x7
  xor r23, r3, 0x5A
  add r24, r3, r3
  mov r25, 0x3
  mov r26, 0x9
  sub r27, r3, 0x2
%s
  add r28, r20, r21
  add r28, r28, r22
  add r28, r28, r23
  add r28, r28, r24
  add r28, r28, r25
  add r28, r28, r26
  add r28, r28, r27
  st.global [r5+0x0], r28
  exit
`, loop)
}

// TestDifferentialFuzz runs random kernels end-to-end through the full
// timed pipeline under every policy and demands bit-identical memory
// output. This is the strongest whole-system oracle in the repository:
// any divergence between the bypass bookkeeping and the architectural
// semantics shows up as a mismatch.
func TestDifferentialFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(0xB0))
	trials := 25
	if testing.Short() {
		trials = 5
	}
	const grid, block = 2, 64
	const n = grid * block
	policies := []core.Config{
		{Policy: core.PolicyBaseline},
		{IW: 2, Policy: core.PolicyWriteThrough},
		{IW: 3, Policy: core.PolicyWriteBack},
		{IW: 3, Policy: core.PolicyCompilerHints},
		{IW: 4, Capacity: 4, Policy: core.PolicyCompilerHints}, // tiny BOC stress
		{IW: 2, Capacity: 2, Policy: core.PolicyWriteBack},
		// Rival architectures: defaults plus tiny capacities, which
		// force eviction (carfc) and interval splitting (ltrf).
		rowConfig(policy.CARFC, 0),
		rowConfig(policy.CARFC, 2),
		rowConfig(policy.LTRF, 0),
		rowConfig(policy.LTRF, 2),
		rowConfig(policy.SCRF, 0),
	}
	for trial := 0; trial < trials; trial++ {
		src := genKernel(r)
		var ref []uint32
		for pi, bcfg := range policies {
			m := mem.NewMemory()
			k := prepareFor(t, src, grid, block, []uint32{0x10000}, bcfg)
			d, err := New(smallGPU(), bcfg, k, m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Run(0); err != nil {
				t.Fatalf("trial %d policy %v: %v\n%s", trial, bcfg.Policy, err, src)
			}
			out, err := m.ReadWords(0x10000, n)
			if err != nil {
				t.Fatal(err)
			}
			if pi == 0 {
				ref = out
				continue
			}
			for i := range out {
				if out[i] != ref[i] {
					t.Fatalf("trial %d policy %v (IW %d cap %d): out[%d] = %#x, baseline %#x\n%s",
						trial, bcfg.Policy, bcfg.IW, bcfg.Capacity, i, out[i], ref[i], src)
				}
			}
		}
	}
}
