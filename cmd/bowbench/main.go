// Command bowbench regenerates the BOW paper's evaluation artifacts:
// every table and figure of the paper is reproduced from simulation and
// printed as a text table. Simulations are submitted through the
// concurrent job engine (internal/simjob): the full evaluation's point
// set is prewarmed across a worker pool and deduplicated by content
// hash, so the wall-clock cost scales down with the core count while
// the rendered artifacts stay byte-identical to a sequential run.
//
// Usage:
//
//	bowbench                 # run everything, GOMAXPROCS workers
//	bowbench -exp fig10      # one experiment
//	bowbench -list           # list experiment IDs
//	bowbench -seq            # inline sequential simulation (no engine)
//	bowbench -cachedir DIR   # persist result summaries across runs
//	bowbench -simrate FILE   # measure simulator throughput, write JSON,
//	                         # and gate per-policy allocs/cycle (-allocgate)
//	bowbench -cpuprofile F   # write a pprof CPU profile of the run
//	bowbench -memprofile F   # write a pprof heap profile at exit
//
// Experiment IDs: fig1 fig3 fig4 table1 fig7 fig8 fig9 fig10 fig11
// fig12 fig13 table2 table3 table4 rfc crosspolicy
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"bow/internal/experiments"
	"bow/internal/simjob"
)

// simRateWorkloads/simRatePolicies are the (workload, policy) grid the
// -simrate report measures: the three benchmarks the cycle-loop
// benchmark harness tracks, under the baseline, both BOW policies, and
// the three comparator engines (so the alloc gate covers every
// per-cycle path).
var (
	simRateWorkloads = []string{"VECTORADD", "LIB", "SAD"}
	simRatePolicies  = []string{
		simjob.PolicyBaseline, simjob.PolicyBOWWT, simjob.PolicyBOWWR,
		simjob.PolicyCARFC, simjob.PolicyLTRF, simjob.PolicySCRF,
	}
)

// writeSimRate measures simulator throughput (optimized vs reference
// cycle loop) for the benchmark grid and writes BENCH_simrate.json.
func writeSimRate(path string, minWall time.Duration) error {
	fmt.Fprintf(os.Stderr, "bowbench: measuring simulation rate (%.0fs per point, x2 loops)\n", minWall.Seconds())
	return simjob.WriteSimRateReport(path, simRateWorkloads, simRatePolicies, minWall,
		"pre-PR seed rates (2s/pt, same host class): VECTORADD 229736 c/s, LIB 128996 c/s, SAD 161394 c/s baseline",
		func(line string) { fmt.Fprintln(os.Stderr, "  "+line) })
}

// checkAllocGate reads a freshly written simrate report back and fails
// when any policy's worst allocs/cycle exceeds the gate — the
// regression guard that keeps the cycle loop's hot path allocation-free
// under every bypass policy, not just the baseline.
func checkAllocGate(path string, gate float64) error {
	if gate <= 0 {
		return nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep simjob.SimRateReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	worst := map[string]float64{}
	order := []string{}
	for _, p := range rep.Points {
		if _, ok := worst[p.Policy]; !ok {
			order = append(order, p.Policy)
		}
		if p.AllocsPerCycle > worst[p.Policy] {
			worst[p.Policy] = p.AllocsPerCycle
		}
	}
	failed := false
	for _, pol := range order {
		verdict := "PASS"
		if worst[pol] > gate {
			verdict, failed = "FAIL", true
		}
		fmt.Fprintf(os.Stderr, "bowbench: allocgate %-8s max %.2f allocs/cycle (gate %.2f) %s\n",
			pol, worst[pol], gate, verdict)
	}
	if failed {
		return fmt.Errorf("allocs/cycle gate %.2f exceeded", gate)
	}
	return nil
}

type experiment struct {
	id    string
	title string
	run   func(r *experiments.Runner) (string, error)
}

func static(s string) func(*experiments.Runner) (string, error) {
	return func(*experiments.Runner) (string, error) { return s, nil }
}

func allExperiments() []experiment {
	return []experiment{
		{"fig1", "Fig 1: on-chip memory growth", static(experiments.Fig1())},
		{"fig3", "Fig 3: bypass opportunity vs window size", func(r *experiments.Runner) (string, error) {
			f, err := experiments.Fig3(r)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"fig4", "Fig 4: time in operand-collection stage", func(r *experiments.Runner) (string, error) {
			f, err := experiments.Fig4(r)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"table1", "Table I: RF writes for the Fig 6 fragment", func(*experiments.Runner) (string, error) {
			t, err := experiments.TableI()
			if err != nil {
				return "", err
			}
			return t.Render(), nil
		}},
		{"fig7", "Fig 7: write-destination distribution (BOW-WR)", func(r *experiments.Runner) (string, error) {
			f, err := experiments.Fig7(r)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"fig8", "Fig 8: source operands per instruction", func(r *experiments.Runner) (string, error) {
			f, err := experiments.Fig8(r)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"fig9", "Fig 9: BOC occupancy", func(r *experiments.Runner) (string, error) {
			f, err := experiments.Fig9(r)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"fig10", "Fig 10: IPC improvement", func(r *experiments.Runner) (string, error) {
			f, err := experiments.Fig10(r)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"fig11", "Fig 11: IPC with half-size BOC", func(r *experiments.Runner) (string, error) {
			f, err := experiments.Fig11(r)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"fig12", "Fig 12: OC-stage cycles vs baseline", func(r *experiments.Runner) (string, error) {
			f, err := experiments.Fig12(r)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"fig13", "Fig 13: normalized RF dynamic energy", func(r *experiments.Runner) (string, error) {
			f, err := experiments.Fig13(r)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"table2", "Table II: GPU configuration", static(experiments.TableII())},
		{"table3", "Table III: benchmarks", static(experiments.TableIII())},
		{"table4", "Table IV: BOC overheads", static(experiments.TableIV())},
		{"rfc", "Register-file-cache comparison", func(r *experiments.Runner) (string, error) {
			f, err := experiments.RFC(r)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"crosspolicy", "Cross-policy architecture race (all RF designs)", func(r *experiments.Runner) (string, error) {
			f, err := experiments.CrossPolicy(r)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"extend", "Ablation: extended instruction window", func(r *experiments.Runner) (string, error) {
			f, err := experiments.ExtendAblation(r)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"beyond", "Future work: capacity-bound bypassing", func(r *experiments.Runner) (string, error) {
			f, err := experiments.BeyondWindow(r)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"reorder", "Extension: compiler reordering for locality", func(r *experiments.Runner) (string, error) {
			f, err := experiments.Reorder(r)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
		{"reusedist", "Motivation (§III): register reuse distances", func(r *experiments.Runner) (string, error) {
			f, err := experiments.ReuseDist(r)
			if err != nil {
				return "", err
			}
			return f.Render(), nil
		}},
	}
}

// render runs the experiments whose id is expID (every one when expID
// is empty) on r and writes each table under its title, in roster
// order. It returns how many experiments ran; the first failure stops
// the run.
func render(w io.Writer, r *experiments.Runner, exps []experiment, expID string) (int, error) {
	ran := 0
	for _, e := range exps {
		if expID != "" && e.id != expID {
			continue
		}
		out, err := e.run(r)
		if err != nil {
			return ran, fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Fprintf(w, "==== %s ====\n%s\n", e.title, out)
		ran++
	}
	return ran, nil
}

func main() {
	expID := flag.String("exp", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiment ids")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "simulation worker pool size")
	seq := flag.Bool("seq", false, "simulate inline and sequentially (no job engine)")
	cacheDir := flag.String("cachedir", "", "persist result summaries to this directory")
	simRate := flag.String("simrate", "", "measure simulation rate and write the JSON report to this file")
	simRateWall := flag.Duration("simrate-wall", 2*time.Second, "minimum wall time per -simrate measurement point")
	allocGate := flag.Float64("allocgate", 1.0, "-simrate: fail if any policy's max allocs/cycle exceeds this (<= 0 disables)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bowbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bowbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bowbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bowbench:", err)
			}
		}()
	}

	if *simRate != "" {
		if err := writeSimRate(*simRate, *simRateWall); err != nil {
			fmt.Fprintln(os.Stderr, "bowbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bowbench: wrote %s\n", *simRate)
		if err := checkAllocGate(*simRate, *allocGate); err != nil {
			fmt.Fprintln(os.Stderr, "bowbench:", err)
			os.Exit(1)
		}
		return
	}

	exps := allExperiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-8s %s\n", e.id, e.title)
		}
		return
	}

	start := time.Now()
	r := experiments.NewRunner()
	if !*seq {
		engine, err := simjob.New(simjob.Options{Workers: *workers, CacheDir: *cacheDir})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bowbench:", err)
			os.Exit(1)
		}
		defer engine.Close()
		r = experiments.NewEngineRunner(engine)
		if *expID == "" {
			// Fan the whole evaluation out across the pool up front; the
			// figure loops below then consume results as they land.
			n := experiments.Prewarm(r)
			fmt.Fprintf(os.Stderr, "bowbench: prewarming %d points on %d workers\n", n, *workers)
		}
	}
	ran, err := render(os.Stdout, r, exps, *expID)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bowbench:", err)
		os.Exit(1)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "bowbench: unknown experiment %q (try -list)\n", *expID)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bowbench: %d experiments in %.2fs\n", ran, time.Since(start).Seconds())
}
