package experiments

import (
	"fmt"
	"strings"

	"bow/internal/config"
	"bow/internal/core"
	"bow/internal/energy"
	"bow/internal/simjob"
	"bow/internal/stats"
)

// Fig13Result is the RF dynamic-energy comparison normalized to the
// baseline (paper Fig. 13): one panel for BOW (write-through), one for
// BOW-WR (write-back + compiler hints). Each bar is the RF component
// plus the BOW structure overhead.
type Fig13Result struct {
	Benchmarks []string
	// Per benchmark: normalized RF energy and normalized overhead.
	BOWRF  map[string]float64
	BOWOvh map[string]float64
	WRRF   map[string]float64
	WROvh  map[string]float64

	MeanBOW   float64 // total normalized energy (RF + overhead)
	MeanBOWWR float64
}

// Fig13 computes normalized dynamic energy at IW 3.
func Fig13(r *Runner) (*Fig13Result, error) {
	res := &Fig13Result{
		BOWRF:  map[string]float64{},
		BOWOvh: map[string]float64{},
		WRRF:   map[string]float64{},
		WROvh:  map[string]float64{},
	}
	n := float64(len(Suite()))
	for _, b := range Suite() {
		base, err := r.Baseline(b)
		if err != nil {
			return nil, err
		}
		baseRep := energy.Compute(base.Energy)

		wt, err := r.Run(b, core.Config{IW: 3, Policy: core.PolicyWriteThrough})
		if err != nil {
			return nil, err
		}
		wr, err := r.Run(b, core.Config{IW: 3, Capacity: 6, Policy: core.PolicyCompilerHints})
		if err != nil {
			return nil, err
		}
		wtRF, wtOvh, err := energy.Normalized(energy.Compute(wt.Energy), baseRep)
		if err != nil {
			return nil, err
		}
		wrRF, wrOvh, err := energy.Normalized(energy.Compute(wr.Energy), baseRep)
		if err != nil {
			return nil, err
		}
		res.Benchmarks = append(res.Benchmarks, b.Name)
		res.BOWRF[b.Name], res.BOWOvh[b.Name] = wtRF, wtOvh
		res.WRRF[b.Name], res.WROvh[b.Name] = wrRF, wrOvh
		res.MeanBOW += (wtRF + wtOvh) / n
		res.MeanBOWWR += (wrRF + wrOvh) / n
	}
	return res, nil
}

// Render formats the two panels of Fig. 13.
func (f *Fig13Result) Render() string {
	var sb strings.Builder
	for _, panel := range []struct {
		title   string
		rf, ovh map[string]float64
		mean    float64
	}{
		{"(a) BOW (write-through) normalized RF dynamic energy", f.BOWRF, f.BOWOvh, f.MeanBOW},
		{"(b) BOW-WR (write-back + compiler hints) normalized RF dynamic energy", f.WRRF, f.WROvh, f.MeanBOWWR},
	} {
		sb.WriteString(panel.title + "\n")
		t := stats.NewTable("benchmark", "RF energy", "overhead", "total")
		for _, b := range f.Benchmarks {
			t.AddRow(b, stats.Pct(panel.rf[b]), stats.Pct(panel.ovh[b]),
				stats.Pct(panel.rf[b]+panel.ovh[b]))
		}
		t.AddRow("MEAN", "", "", stats.Pct(panel.mean))
		sb.WriteString(t.String())
		sb.WriteString(fmt.Sprintf("=> dynamic energy saving: %s\n\n", stats.Pct(1-panel.mean)))
	}
	return sb.String()
}

// RFCResult compares BOW-WR against the register-file-cache related
// work (paper §V-A): RFC saves bank energy but keeps port serialization,
// so its IPC gain is marginal; its storage is double BOW-WR's half-size
// BOC.
type RFCResult struct {
	Benchmarks   []string
	RFCImprove   map[string]float64
	BOWWRImprove map[string]float64
	MeanRFC      float64
	MeanBOWWR    float64
	RFCBytes     int
	BOWWRBytes   int
}

// RFC runs the comparator at 6 entries per warp.
func RFC(r *Runner) (*RFCResult, error) {
	rfcCfg, err := simjob.DefaultPolicyConfig(simjob.PolicyRFC)
	if err != nil {
		return nil, err
	}
	wrCfg := core.Config{IW: 3, Capacity: 6, Policy: core.PolicyCompilerHints}
	res := &RFCResult{
		RFCImprove:   map[string]float64{},
		BOWWRImprove: map[string]float64{},
		RFCBytes:     crossPolicyStorage(rfcCfg, config.SimDefault().MaxWarpsPerSM),
		// The half-size BOC adds (6-3) entries × 128 B per warp over the
		// baseline's collectors — the paper's 12 KB at 32 warps.
		BOWWRBytes: crossPolicyStorage(wrCfg, config.SimDefault().MaxWarpsPerSM),
	}

	n := float64(len(Suite()))
	for _, b := range Suite() {
		base, err := r.Baseline(b)
		if err != nil {
			return nil, err
		}
		rfcOut, err := r.Run(b, rfcCfg)
		if err != nil {
			return nil, err
		}
		wr, err := r.Run(b, wrCfg)
		if err != nil {
			return nil, err
		}
		ir := rfcOut.Stats.IPC()/base.Stats.IPC() - 1
		iw := wr.Stats.IPC()/base.Stats.IPC() - 1
		res.Benchmarks = append(res.Benchmarks, b.Name)
		res.RFCImprove[b.Name] = ir
		res.BOWWRImprove[b.Name] = iw
		res.MeanRFC += ir / n
		res.MeanBOWWR += iw / n
	}
	return res, nil
}

// Render formats the RFC comparison.
func (f *RFCResult) Render() string {
	t := stats.NewTable("benchmark", "RFC IPC gain", "BOW-WR IPC gain")
	for _, b := range f.Benchmarks {
		t.AddRow(b, stats.Pct(f.RFCImprove[b]), stats.Pct(f.BOWWRImprove[b]))
	}
	t.AddRow("MEAN", stats.Pct(f.MeanRFC), stats.Pct(f.MeanBOWWR))
	return fmt.Sprintf("Register File Cache comparison (6 entries/warp, %d KB vs BOW-WR half-size %d KB)\n",
		f.RFCBytes/1024, f.BOWWRBytes/1024) + t.String()
}
