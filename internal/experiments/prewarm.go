package experiments

import (
	"context"

	"bow/internal/core"
	"bow/internal/simjob"
)

// prewarmPoint is one simulation of the evaluation: a normalized
// window config, whether the reorder pass runs, and whether traces are
// captured.
type prewarmPoint struct {
	cfg     core.Config
	reorder bool
	trace   bool
}

// prewarmPoints enumerates every point the figure generators request,
// once each, so a prewarm can fan the whole evaluation out across the
// engine's workers at once. The list mirrors the experiment functions
// (Fig 3–13, Tables, RFC, ablations); drift is benign — missed points
// are simulated on demand, they just lose the head start.
func prewarmPoints() []prewarmPoint {
	var pts []prewarmPoint
	add := func(cfg core.Config, reorder, trace bool) {
		cfg, err := cfg.Normalize()
		if err != nil {
			return
		}
		p := prewarmPoint{cfg, reorder, trace}
		for _, q := range pts {
			if q == p {
				return
			}
		}
		pts = append(pts, p)
	}

	// Baseline (Figs 4, 8, 10–13, energy normalizations) and traces
	// (reuse-distance study).
	add(core.Config{Policy: core.PolicyBaseline}, false, false)
	add(core.Config{Policy: core.PolicyBaseline}, false, true)
	// Fig 3 window sweep: BOW-WB and BOW-WR over IW 2–7 (the WR IW 2–4
	// points double as Figs 10 and 12's).
	for iw := 2; iw <= 7; iw++ {
		add(core.Config{IW: iw, Policy: core.PolicyWriteBack}, false, false)
		add(core.Config{IW: iw, Policy: core.PolicyCompilerHints}, false, false)
	}
	// Fig 10's BOW-WT axis.
	for _, iw := range []int{2, 3, 4} {
		add(core.Config{IW: iw, Policy: core.PolicyWriteThrough}, false, false)
	}
	// Fig 11 down-sized BOCs.
	add(core.Config{IW: 3, Capacity: 6, Policy: core.PolicyCompilerHints}, false, false)
	add(core.Config{IW: 3, Capacity: 3, Policy: core.PolicyCompilerHints}, false, false)
	// Every architecture at its default design point (the cross-policy
	// race) — derived from the full roster, so a policy added to
	// internal/policy joins the prewarm set without touching this list.
	for _, p := range simjob.AllPolicies() {
		if cfg, err := simjob.DefaultPolicyConfig(p); err == nil {
			add(cfg, false, false)
		}
	}
	// Future-work capacity-bound bypassing and the extension ablation.
	add(core.Config{IW: 3, Capacity: 6, Policy: core.PolicyWriteBack}, false, false)
	add(core.Config{IW: 3, Capacity: 6, Policy: core.PolicyWriteBack, BeyondWindow: true}, false, false)
	add(core.Config{IW: 3, Policy: core.PolicyWriteBack, NoExtend: true}, false, false)
	// Footnote-1 reordering study.
	add(core.Config{IW: 3, Policy: core.PolicyWriteBack}, true, false)
	add(core.Config{IW: 3, Policy: core.PolicyCompilerHints}, true, false)
	return pts
}

// Prewarm submits every simulation point of the full evaluation to the
// runner's engine without waiting: the pool simulates them
// concurrently while the figure generators consume results in order
// (the engine's single-flight layer joins a generator's request onto
// the in-flight twin). Returns the number of points submitted; 0 when
// the runner has no engine.
func Prewarm(r *Runner) int {
	if r.Engine == nil {
		return 0
	}
	n := 0
	for _, b := range Suite() {
		for _, p := range prewarmPoints() {
			spec, err := r.spec(b, p.cfg, p.reorder, p.trace)
			if err != nil {
				continue
			}
			r.Engine.SubmitFull(context.Background(), spec)
			n++
		}
	}
	return n
}
