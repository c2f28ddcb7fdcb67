package policy

import (
	"testing"

	"bow/internal/core"
	"bow/internal/isa"
)

// TestRoster holds the table closed: every core.Policy value backs at
// least one row, every row's fields are populated and consistent with
// its engine behaviour, and every spelling names exactly one row.
func TestRoster(t *testing.T) {
	backed := map[core.Policy]bool{}
	for i := range Roster {
		backed[Roster[i].Core] = true
	}
	for p := core.Policy(0); int(p) < core.NumPolicies; p++ {
		if !backed[p] {
			t.Errorf("core policy %v backs no roster row", p)
		}
	}

	seen := map[string]string{}
	for i := range Roster {
		a := &Roster[i]
		for _, sp := range append([]string{a.Name}, a.Aliases...) {
			if sp == "" {
				t.Errorf("row %d has an empty spelling", i)
			}
			if prev, dup := seen[sp]; dup {
				t.Errorf("spelling %q names both %s and %s", sp, prev, a.Name)
			}
			seen[sp] = a.Name
			if got, ok := Lookup(sp); !ok || got != a {
				t.Errorf("Lookup(%q) does not find %s", sp, a.Name)
			}
		}
		populated(t, a)
	}
	if _, ok := Lookup("turbo"); ok {
		t.Error("Lookup accepted an unknown spelling")
	}
}

// populated checks that one row's fields are set and agree with each
// other and with the engine behaviour the row runs.
func populated(t *testing.T, a *Arch) {
	t.Helper()
	if int(a.Core) >= core.NumPolicies {
		t.Errorf("%s: core policy %v out of range", a.Name, a.Core)
	}
	buffers := a.Core.Bypassing()
	switch {
	case a.Window && !buffers:
		t.Errorf("%s: a window without a buffer", a.Name)
	case a.Ablations && !a.Window:
		t.Errorf("%s: window ablations without a window", a.Name)
	case buffers && !a.Window && a.Capacity <= 0:
		t.Errorf("%s: windowless buffer without a default capacity", a.Name)
	case (a.Window || !buffers) && a.Capacity != 0:
		t.Errorf("%s: capacity %d set where the default is not a fixed size", a.Name, a.Capacity)
	case a.Param != ParamNone && a.Pass == PassNone:
		t.Errorf("%s: pass parameter without a pass", a.Name)
	case a.Param == ParamIW && !a.Window:
		t.Errorf("%s: pass takes the window size but the row has none", a.Name)
	case a.Param == ParamCapacity && !buffers:
		t.Errorf("%s: pass takes the capacity but the row buffers nothing", a.Name)
	case a.CollectorEntries != 0 && !a.Window:
		t.Errorf("%s: only a windowed BOC absorbs collector entries", a.Name)
	}
	cfg, err := a.DefaultConfig()
	if err != nil {
		t.Fatalf("%s: default config: %v", a.Name, err)
	}
	if got, ok := Of(cfg); !ok || got != a {
		t.Errorf("%s: default config %+v maps to another row", a.Name, cfg)
	}
	if !a.Expresses(cfg) {
		t.Errorf("%s: a spec cannot express the default config %+v", a.Name, cfg)
	}
	if s := a.StorageBytes(cfg, 32); s < 0 {
		t.Errorf("%s: negative storage %d", a.Name, s)
	}
	// Rows sharing an engine behaviour share its compiler contract, so
	// a config maps onto one pass whichever of them it came from.
	for i := range Roster {
		if b := &Roster[i]; b.Core == a.Core && (b.Pass != a.Pass || b.Param != a.Param) {
			t.Errorf("%s and %s run %v but prepare different kernels", a.Name, b.Name, a.Core)
		}
	}
}

// capacityRows are the windowless buffers (rfc, carfc, ltrf): caches
// and operand buffers sized in entries per warp.
func capacityRows() []*Arch {
	var out []*Arch
	for i := range Roster {
		if a := &Roster[i]; a.Core.Bypassing() && !a.Window {
			out = append(out, a)
		}
	}
	return out
}

func TestCapacityRowsConfig(t *testing.T) {
	for _, a := range capacityRows() {
		t.Run(a.Name, func(t *testing.T) {
			c, err := a.Config(0, 6, false, false)
			if err != nil {
				t.Fatal(err)
			}
			if c.Policy != a.Core || c.ForwardThroughPort != a.ForwardThroughPort {
				t.Errorf("config = %+v", c)
			}
			if c.Capacity != 6 || c.IW != noWindow {
				t.Errorf("normalized = %+v", c)
			}
			if d, err := a.Config(0, 0, false, false); err != nil || d.Capacity != a.Capacity {
				t.Errorf("default entries = %d (%v), want %d", d.Capacity, err, a.Capacity)
			}
		})
	}
}

func TestCapacityRowsStorageBytes(t *testing.T) {
	// 6 entries x 128B x 32 warps = 24 KB (the paper's RFC comparison
	// point).
	for _, a := range capacityRows() {
		t.Run(a.Name, func(t *testing.T) {
			if got := a.StorageBytes(core.Config{Capacity: 6}, 32); got != 24*1024 {
				t.Errorf("storage = %d, want 24KB", got)
			}
		})
	}
}

// A windowless buffer must never window-evict: values leave only by
// capacity pressure (or the policy's own drain rule).
func TestCapacityRowsNeverWindowEvict(t *testing.T) {
	for _, a := range capacityRows() {
		t.Run(a.Name, func(t *testing.T) {
			cfg, err := a.Config(0, 4, false, false)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := core.NewEngine(cfg, func(uint8, *core.Value, core.WriteCause) {})
			if err != nil {
				t.Fatal(err)
			}
			// Touch 4 distinct registers, then 1000 unrelated instructions.
			var plan core.Plan
			for r := uint8(1); r <= 4; r++ {
				in := &isa.Instruction{Op: isa.OpMov, HasDst: true, Dst: r, PredReg: isa.PredTrue}
				eng.Advance(in, &plan)
				eng.Writeback(r, &core.Value{}, isa.WBBoth, plan.Seq)
			}
			nop := &isa.Instruction{Op: isa.OpNop, PredReg: isa.PredTrue}
			for i := 0; i < 1000; i++ {
				eng.Advance(nop, &plan)
			}
			if eng.Occupancy() != 4 {
				t.Errorf("occupancy = %d, want 4 (no window eviction)", eng.Occupancy())
			}
			st := eng.Stats()
			if st.RFWrites != 0 {
				t.Errorf("RF writes = %d, want 0", st.RFWrites)
			}
		})
	}
}

// TestCapacityRowsSteadyStateAllocs pins the zero-alloc guarantee for
// the windowless buffers at their default sizes: they churn through
// capacity evictions constantly, so a per-entry allocation here would
// dominate the simulator's hot path.
func TestCapacityRowsSteadyStateAllocs(t *testing.T) {
	for _, a := range capacityRows() {
		t.Run(a.Name, func(t *testing.T) {
			cfg, err := a.DefaultConfig()
			if err != nil {
				t.Fatal(err)
			}
			eng, err := core.NewEngine(cfg, func(uint8, *core.Value, core.WriteCause) {})
			if err != nil {
				t.Fatal(err)
			}
			var v core.Value
			var plan core.Plan
			in := &isa.Instruction{Op: isa.OpAdd, PredReg: isa.PredTrue, HasDst: true, NSrc: 2}
			run := func() {
				for i := 0; i < 64; i++ {
					in.Dst = uint8(i % 16)
					in.Srcs[0] = isa.Reg(uint8((i + 5) % 16))
					in.Srcs[1] = isa.Reg(uint8((i + 9) % 16))
					eng.Advance(in, &plan)
					for j := 0; j < plan.NNeedRF; j++ {
						eng.FillFromRF(plan.NeedRF[j], &v, plan.Seq)
					}
					eng.Writeback(in.Dst, &v, in.WBHint, plan.Seq)
				}
			}
			run()
			if got := testing.AllocsPerRun(50, run); got != 0 {
				t.Errorf("%s steady state: %.1f allocs per 64-instruction run, want 0", a.Name, got)
			}
		})
	}
}
