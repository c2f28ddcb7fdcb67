package experiments

import (
	"fmt"
	"strings"

	"bow/internal/config"
	"bow/internal/core"
	"bow/internal/energy"
	"bow/internal/policy"
	"bow/internal/simjob"
	"bow/internal/stats"
)

// CrossPolicyResult races every register-file architecture the
// simulator models — baseline, the three BOW variants, and the four
// comparators (rfc, carfc, ltrf, scrf) — at each policy's default
// design point, over the full benchmark suite. Per (policy, benchmark)
// it reports the IPC gain over the baseline and the total normalized
// RF dynamic energy (RF component + structure overhead, Fig 13's
// normalization); per policy the added on-chip storage of the design.
type CrossPolicyResult struct {
	Benchmarks []string
	Policies   []string // canonical simjob names, baseline first

	IPCGain map[string]map[string]float64 // policy -> bench -> IPC gain
	Energy  map[string]map[string]float64 // policy -> bench -> normalized energy

	MeanIPCGain map[string]float64
	MeanEnergy  map[string]float64
	Storage     map[string]int // policy -> added bytes per SM
}

// crossPolicyStorage is the added per-SM storage of an architecture's
// design point, relative to the baseline's 3-entry operand collectors,
// by the storage rule of the config's internal/policy row.
func crossPolicyStorage(bcfg core.Config, warps int) int {
	a, ok := policy.Of(bcfg)
	if !ok {
		return 0
	}
	return a.StorageBytes(bcfg, warps)
}

// CrossPolicy runs the architecture race over the whole roster: one
// simulation per (policy, benchmark) at the policy's default design
// point, every policy normalized against the same baseline run. The
// roster comes from simjob.AllPolicies (internal/policy's rows), so a
// row added there joins the race (and its prewarm) without touching
// this experiment.
func CrossPolicy(r *Runner) (*CrossPolicyResult, error) {
	res := &CrossPolicyResult{
		IPCGain:     map[string]map[string]float64{},
		Energy:      map[string]map[string]float64{},
		MeanIPCGain: map[string]float64{},
		MeanEnergy:  map[string]float64{},
		Storage:     map[string]int{},
	}
	configs := map[string]core.Config{}
	for _, p := range simjob.AllPolicies() {
		cfg, err := simjob.DefaultPolicyConfig(p)
		if err != nil {
			return nil, fmt.Errorf("cross-policy: %s: %w", p, err)
		}
		res.Policies = append(res.Policies, p)
		configs[p] = cfg
		res.Storage[p] = crossPolicyStorage(cfg, config.SimDefault().MaxWarpsPerSM)
		res.IPCGain[p] = map[string]float64{}
		res.Energy[p] = map[string]float64{}
	}

	n := float64(len(Suite()))
	for _, b := range Suite() {
		base, err := r.Baseline(b)
		if err != nil {
			return nil, err
		}
		baseRep := energy.Compute(base.Energy)
		res.Benchmarks = append(res.Benchmarks, b.Name)
		for _, p := range res.Policies {
			// The baseline's own point is the memoized run above.
			out, err := r.Run(b, configs[p])
			if err != nil {
				return nil, fmt.Errorf("cross-policy: %s/%s: %w", p, b.Name, err)
			}
			gain := out.Stats.IPC()/base.Stats.IPC() - 1
			rfFrac, ovhFrac, err := energy.Normalized(energy.Compute(out.Energy), baseRep)
			if err != nil {
				return nil, err
			}
			res.IPCGain[p][b.Name] = gain
			res.Energy[p][b.Name] = rfFrac + ovhFrac
			res.MeanIPCGain[p] += gain / n
			res.MeanEnergy[p] += (rfFrac + ovhFrac) / n
		}
	}
	return res, nil
}

// Render formats the race: one IPC-gain table and one normalized-energy
// table (benchmarks × policies), then the per-policy summary with
// storage.
func (f *CrossPolicyResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Cross-policy architecture race (default design points, vs baseline)\n\n")

	cols := append([]string{"benchmark"}, f.Policies...)
	ipc := stats.NewTable(cols...)
	for _, b := range f.Benchmarks {
		row := []string{b}
		for _, p := range f.Policies {
			row = append(row, stats.Pct(f.IPCGain[p][b]))
		}
		ipc.AddRow(row...)
	}
	mean := []string{"MEAN"}
	for _, p := range f.Policies {
		mean = append(mean, stats.Pct(f.MeanIPCGain[p]))
	}
	ipc.AddRow(mean...)
	sb.WriteString("IPC gain\n" + ipc.String() + "\n")

	en := stats.NewTable(cols...)
	for _, b := range f.Benchmarks {
		row := []string{b}
		for _, p := range f.Policies {
			row = append(row, stats.Pct(f.Energy[p][b]))
		}
		en.AddRow(row...)
	}
	mean = []string{"MEAN"}
	for _, p := range f.Policies {
		mean = append(mean, stats.Pct(f.MeanEnergy[p]))
	}
	en.AddRow(mean...)
	sb.WriteString("Normalized RF dynamic energy (RF + overhead)\n" + en.String() + "\n")

	sum := stats.NewTable("policy", "mean IPC gain", "mean energy", "added storage")
	for _, p := range f.Policies {
		sum.AddRow(p, stats.Pct(f.MeanIPCGain[p]), stats.Pct(f.MeanEnergy[p]),
			fmt.Sprintf("%.1f KB", float64(f.Storage[p])/1024))
	}
	sb.WriteString("Summary\n" + sum.String())
	return sb.String()
}
