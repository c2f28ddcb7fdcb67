// Package bow_test hosts the benchmark harness: one testing.B per table
// and figure of the paper's evaluation (regenerating the artifact and
// reporting its headline number as a custom metric), plus
// microbenchmarks of the core structures.
//
//	go test -bench=. -benchmem
//
// Paper targets for the custom metrics (TITAN X Pascal, IW 3):
//
//	Fig 3   read bypass 59%, write bypass 52%
//	Fig 10  IPC +11% (BOW) / +13% (BOW-WR)
//	Fig 11  IPC +11% with half-size BOC
//	Fig 12  OC residency 0.40x of baseline
//	Fig 13  RF dynamic energy -36% (BOW) / -55% (BOW-WR)
//	Table I 10 / 5 / 2 RF writes (exact)
package bow_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"bow/internal/asm"
	"bow/internal/compiler"
	"bow/internal/core"
	"bow/internal/experiments"
	"bow/internal/isa"
	"bow/internal/simjob"
	"bow/internal/workloads"
)

func BenchmarkFig3BypassOpportunity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		f, err := experiments.Fig3(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*f.MeanRead[1], "read_bypass_iw3_%")
		b.ReportMetric(100*f.MeanWrite[1], "write_bypass_iw3_%")
	}
}

func BenchmarkFig4OCResidency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		f, err := experiments.Fig4(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*f.MeanOvr, "oc_share_%")
	}
}

func BenchmarkTableIWriteCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.TableI()
		if err != nil {
			b.Fatal(err)
		}
		wt, wb, hints := t.Totals()
		if wt != 10 || wb != 5 || hints != 2 {
			b.Fatalf("Table I regressed: %d/%d/%d, want 10/5/2", wt, wb, hints)
		}
		b.ReportMetric(float64(wt), "writes_wt")
		b.ReportMetric(float64(wb), "writes_wb")
		b.ReportMetric(float64(hints), "writes_wr")
	}
}

func BenchmarkFig7WriteDestinations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		f, err := experiments.Fig7(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*f.MeanBOC, "transient_%")
		b.ReportMetric(100*f.MeanRF, "rf_only_%")
	}
}

func BenchmarkFig8SourceOperands(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		f, err := experiments.Fig8(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*f.Mean[3], "three_src_%")
	}
}

func BenchmarkFig9BOCOccupancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		f, err := experiments.Fig9(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*f.MeanAtMost6, "at_most_half_%")
	}
}

func BenchmarkFig10IPCImprovement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		f, err := experiments.Fig10(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*f.MeanBOW[1], "bow_ipc_gain_iw3_%")
		b.ReportMetric(100*f.MeanBOWWR[1], "bowwr_ipc_gain_iw3_%")
	}
}

func BenchmarkFig11HalfSizeBOC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		f, err := experiments.Fig11(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*f.Mean, "halfsize_ipc_gain_%")
		b.ReportMetric(100*(f.MeanFull-f.Mean), "loss_vs_full_%")
	}
}

func BenchmarkFig12OCStageCycles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		f, err := experiments.Fig12(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.Mean[1], "oc_cycles_iw3_x")
	}
}

func BenchmarkFig13RFEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		f, err := experiments.Fig13(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(1-f.MeanBOW), "bow_energy_saving_%")
		b.ReportMetric(100*(1-f.MeanBOWWR), "bowwr_energy_saving_%")
	}
}

func BenchmarkRFCComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		f, err := experiments.RFC(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*f.MeanRFC, "rfc_ipc_gain_%")
		b.ReportMetric(100*f.MeanBOWWR, "bowwr_ipc_gain_%")
	}
}

func BenchmarkExtendAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		f, err := experiments.ExtendAblation(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(f.MeanWith-f.MeanWout), "extension_gain_pp")
	}
}

func BenchmarkBeyondWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		f, err := experiments.BeyondWindow(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*f.MeanBeyond, "beyond_bypass_%")
		b.ReportMetric(100*f.MeanBeyondI, "beyond_ipc_gain_%")
	}
}

func BenchmarkReorderExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner()
		f, err := experiments.Reorder(r)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(f.MeanReorder-f.MeanPlain), "reorder_gain_pp")
	}
}

// ---------------------------------------------------------------------
// Microbenchmarks: throughput of the core structures.
// ---------------------------------------------------------------------

// BenchmarkEngineAdvance measures the window engine's per-instruction
// bookkeeping cost.
func BenchmarkEngineAdvance(b *testing.B) {
	prog := workloads.BTreeSnippet()
	stream := make([]*isa.Instruction, 0, len(prog.Code))
	for i := range prog.Code {
		stream = append(stream, &prog.Code[i])
	}
	eng, err := core.NewEngine(core.Config{IW: 3, Policy: core.PolicyWriteBack},
		func(uint8, *core.Value, core.WriteCause) {})
	if err != nil {
		b.Fatal(err)
	}
	var plan core.Plan
	var v core.Value
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := stream[i%len(stream)]
		eng.Advance(in, &plan)
		for j := 0; j < plan.NNeedRF; j++ {
			eng.FillFromRF(plan.NeedRF[j], &v, plan.Seq)
		}
		if d, ok := in.DstReg(); ok {
			eng.Writeback(d, &v, in.WBHint, plan.Seq)
		}
	}
}

// BenchmarkReplay measures trace-replay throughput (instructions/op).
func BenchmarkReplay(b *testing.B) {
	prog := workloads.BTreeSnippet()
	stream := make([]*isa.Instruction, 0, len(prog.Code))
	for i := range prog.Code {
		stream = append(stream, &prog.Code[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Replay(stream, core.Config{IW: 3, Policy: core.PolicyWriteBack}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompilerAnnotate measures the hint pass on a mid-size kernel.
func BenchmarkCompilerAnnotate(b *testing.B) {
	lib, err := workloads.ByName("LIB")
	if err != nil {
		b.Fatal(err)
	}
	src := lib.Source
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := asm.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := compiler.Annotate(prog, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures end-to-end simulated
// cycles/second on one benchmark.
func BenchmarkSimulatorThroughput(b *testing.B) {
	r := experiments.NewRunner()
	lib, err := workloads.ByName("LIB")
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh runner state per iteration (avoid the memo cache).
		r = experiments.NewRunner()
		res, err := r.Run(lib, core.Config{IW: 3, Policy: core.PolicyWriteBack})
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim_cycles/op")
}

// sweepBenchSpec is the workload for the engine scaling pair below:
// 9 independent simulations (3 benchmarks x 3 policies), enough work
// to amortize pool startup while staying in microbenchmark territory.
func sweepBenchSpec() simjob.SweepSpec {
	return simjob.SweepSpec{
		Benches:  []string{"VECTORADD", "LIB", "SAD"},
		Policies: []string{simjob.PolicyBaseline, simjob.PolicyBOWWB, simjob.PolicyBOWWR},
		IWs:      []int{3},
	}
}

func runSweepBench(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		// Fresh engine per iteration: cold cache, so every job simulates.
		eng, err := simjob.New(simjob.Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		res, err := eng.RunSweep(context.Background(), sweepBenchSpec())
		if err != nil {
			eng.Close()
			b.Fatal(err)
		}
		for _, item := range res.Items {
			if item.Error != "" {
				eng.Close()
				b.Fatalf("%s/%s: %s", item.Spec.Bench, item.Spec.Policy, item.Error)
			}
		}
		eng.Close()
	}
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkSweepSequential pins the job engine to one worker — the
// baseline for the scaling comparison.
func BenchmarkSweepSequential(b *testing.B) { runSweepBench(b, 1) }

// BenchmarkSweepParallel runs the same sweep on a GOMAXPROCS-wide
// pool. On a multicore host the ratio to BenchmarkSweepSequential
// approaches the core count (the 9 jobs are independent).
func BenchmarkSweepParallel(b *testing.B) { runSweepBench(b, runtime.GOMAXPROCS(0)) }

// BenchmarkRandomReplay measures the engine over randomized instruction
// mixes (allocation behaviour under churn).
func BenchmarkRandomReplay(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var stream []*isa.Instruction
	for i := 0; i < 4096; i++ {
		in := &isa.Instruction{Op: isa.OpAdd, PredReg: isa.PredTrue,
			HasDst: true, Dst: uint8(r.Intn(32))}
		in.Srcs[0] = isa.Reg(uint8(r.Intn(32)))
		in.Srcs[1] = isa.Reg(uint8(r.Intn(32)))
		in.NSrc = 2
		stream = append(stream, in)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Replay(stream, core.Config{IW: 3, Capacity: 6, Policy: core.PolicyWriteBack}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRate measures the simulator's own throughput — simulated
// cycles and instructions retired per wall-clock second — over real
// workloads under the three policy families the evaluation leans on.
// One op is one complete job (parse, compile, simulate, self-check),
// i.e. exactly what the engine's workers execute. Custom metrics:
//
//	cycles/sec    simulated cycles per host second (higher is better)
//	insts/sec     simulated instructions per host second
//	allocs/cycle  heap allocations per simulated cycle (want ~0)
//
// Run with -benchmem to see per-op allocation too. The sub-benchmark
// names match the workload/policy axes of BENCH_simrate.json
// (`make bench` regenerates it via cmd/bowbench -simrate).
func BenchmarkSimRate(b *testing.B) {
	for _, wl := range []string{"VECTORADD", "LIB", "SAD"} {
		for _, pol := range []string{simjob.PolicyBaseline, simjob.PolicyBOWWT, simjob.PolicyBOWWR} {
			b.Run(wl+"/"+pol, func(b *testing.B) {
				spec := simjob.JobSpec{Bench: wl, Policy: pol}
				b.ReportAllocs()
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				var cycles, insts int64
				for i := 0; i < b.N; i++ {
					out, err := simjob.Execute(context.Background(), spec)
					if err != nil {
						b.Fatal(err)
					}
					cycles += out.Full.Cycles
					insts += out.Full.Stats.Executed
				}
				runtime.ReadMemStats(&ms1)
				if secs := b.Elapsed().Seconds(); secs > 0 && cycles > 0 {
					b.ReportMetric(float64(cycles)/secs, "cycles/sec")
					b.ReportMetric(float64(insts)/secs, "insts/sec")
					b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/float64(cycles), "allocs/cycle")
				}
			})
		}
	}
}

// BenchmarkSimRateReference is BenchmarkSimRate pinned to the in-tree
// reference cycle loop — the before side of the speedup the optimized
// loop is measured against.
func BenchmarkSimRateReference(b *testing.B) {
	for _, wl := range []string{"VECTORADD", "LIB"} {
		b.Run(wl, func(b *testing.B) {
			spec := simjob.JobSpec{Bench: wl, Policy: simjob.PolicyBaseline, ReferenceLoop: true}
			var cycles int64
			for i := 0; i < b.N; i++ {
				out, err := simjob.Execute(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				cycles += out.Full.Cycles
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(cycles)/secs, "cycles/sec")
			}
		})
	}
}
