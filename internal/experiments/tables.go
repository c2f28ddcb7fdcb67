package experiments

import (
	"fmt"
	"strings"

	"bow/internal/asm"
	"bow/internal/compiler"
	"bow/internal/config"
	"bow/internal/core"
	"bow/internal/energy"
	"bow/internal/isa"
	"bow/internal/stats"
	"bow/internal/workloads"
)

// Fig1 renders the on-chip memory growth data (paper Fig. 1).
func Fig1() string {
	t := stats.NewTable("generation", "year", "L1D+shared (MB)", "L2 (MB)", "register file (MB)")
	for _, g := range config.Fig1Data() {
		t.AddRowf(g.Generation, g.Year, g.L1Shared, g.L2, g.RegFile)
	}
	return "On-chip memory components in NVIDIA GPUs (Fig. 1)\n" + t.String()
}

// TableIResult holds the per-register RF write counts of the Fig. 6
// BTREE fragment under the three write policies (paper Table I).
type TableIResult struct {
	Regs  []int // register numbers reported (r0..r3 as in the paper)
	WT    map[int]int64
	WB    map[int]int64
	Hints map[int]int64
}

// TableI replays the paper's code fragment through the window engine at
// IW 3 under each write policy.
func TableI() (*TableIResult, error) {
	res := &TableIResult{
		Regs: []int{0, 1, 2, 3},
		WT:   map[int]int64{}, WB: map[int]int64{}, Hints: map[int]int64{},
	}
	for _, pol := range []struct {
		p     core.Policy
		dest  map[int]int64
		hints bool // annotate the write-back hints first
	}{
		{core.PolicyWriteThrough, res.WT, false},
		{core.PolicyWriteBack, res.WB, false},
		{core.PolicyCompilerHints, res.Hints, true},
	} {
		prog := workloads.BTreeSnippet()
		if pol.hints {
			if _, err := compiler.Annotate(prog, 3); err != nil {
				return nil, err
			}
		}
		stream := make([]*isa.Instruction, 0, len(prog.Code))
		for i := range prog.Code {
			stream = append(stream, &prog.Code[i])
		}
		st, err := core.Replay(stream, core.Config{IW: 3, Policy: pol.p})
		if err != nil {
			return nil, err
		}
		for _, reg := range res.Regs {
			pol.dest[reg] = st.RFWritesByReg[reg]
		}
	}
	return res, nil
}

// Totals sums each policy column.
func (t *TableIResult) Totals() (wt, wb, hints int64) {
	for _, r := range t.Regs {
		wt += t.WT[r]
		wb += t.WB[r]
		hints += t.Hints[r]
	}
	return
}

// Render formats Table I.
func (t *TableIResult) Render() string {
	tab := stats.NewTable("destination", "BOW (write-through)", "BOW (write-back)", "BOW-WR (compiler)")
	for _, r := range t.Regs {
		tab.AddRowf(fmt.Sprintf("$r%d", r), t.WT[r], t.WB[r], t.Hints[r])
	}
	wt, wb, h := t.Totals()
	tab.AddRowf("Total", wt, wb, h)
	return "RF writes for the Fig. 6 BTREE fragment (Table I; paper: 10/5/2)\n" + tab.String()
}

// TableII renders the simulated GPU configuration.
func TableII() string {
	g := config.TitanXPascal()
	t := stats.NewTable("parameter", "value")
	t.AddRowf("GPU", g.Name)
	t.AddRowf("# of SMs", g.NumSMs)
	t.AddRowf("# of cores per SM", g.CoresPerSM)
	t.AddRowf("Max TBs/Warps/Threads per SM",
		fmt.Sprintf("%d/%d/%d", g.MaxTBsPerSM, g.MaxWarpsPerSM, g.MaxThreads))
	t.AddRowf("Register file size per SM", fmt.Sprintf("%dKB", g.RegFileKBPerSM))
	t.AddRowf("RF banks per SM", g.NumRFBanks)
	t.AddRowf("L1 cache / shared memory per SM",
		fmt.Sprintf("%dKB/%dKB", g.L1SizeKB, g.SharedKB))
	t.AddRowf("L2 cache size", fmt.Sprintf("%dMB", g.L2SizeKB/1024))
	t.AddRowf("Warp scheduling policy", strings.ToUpper(g.Scheduler))
	t.AddRowf("Warp schedulers per SM (x issue)",
		fmt.Sprintf("%dx%d", g.NumSched, g.IssuePerSched))
	return "NVIDIA TITAN X (Pascal) configuration (Table II)\n" + t.String()
}

// TableIII renders the benchmark inventory.
func TableIII() string {
	t := stats.NewTable("suite", "benchmark", "description")
	for _, b := range workloads.All() {
		t.AddRow(b.Suite, b.Name, b.Description)
	}
	return "Benchmarks (Table III)\n" + t.String()
}

// TableIV renders the BOC overhead constants of the energy model.
func TableIV() string {
	t := stats.NewTable("parameter", "BOC", "register bank", "percentage")
	t.AddRow("Size", "1.5KB", "64KB", "2%")
	t.AddRow("Vdd", "0.96V", "0.96V", "-")
	t.AddRow("Access energy",
		fmt.Sprintf("%.2fpJ", energy.BOCAccessPJ),
		fmt.Sprintf("%.2fpJ", energy.RFAccessPJ),
		fmt.Sprintf("%.1f%%", 100*energy.BOCAccessPJ/energy.RFAccessPJ))
	t.AddRow("Leakage power",
		fmt.Sprintf("%.2fmW", energy.BOCLeakageMW),
		fmt.Sprintf("%.2fmW", energy.RFBankLeakageMW),
		fmt.Sprintf("%.1f%%", 100*energy.BOCLeakageMW/energy.RFBankLeakageMW))
	return "BOC overheads in 28nm technology (Table IV)\n" + t.String()
}

// HintDump disassembles a program with per-instruction write-back hints
// (compiler debugging aid used by cmd/bowasm).
func HintDump(prog *asm.Program, iw int) (string, error) {
	st, err := compiler.Annotate(prog, iw)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "// %s — IW %d: %s\n", prog.Name, iw, st.String())
	for pc := range prog.Code {
		in := &prog.Code[pc]
		hint := ""
		if _, ok := in.DstReg(); ok {
			hint = "  // wb: " + in.WBHint.String()
		}
		fmt.Fprintf(&sb, "%3d:  %-40s%s\n", pc, in.String(), hint)
	}
	return sb.String(), nil
}
