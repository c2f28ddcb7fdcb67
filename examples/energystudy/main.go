// Energystudy: compare register-file dynamic energy across the four
// write policies (baseline, BOW write-through, BOW write-back, BOW-WR
// with compiler hints) on every benchmark — the data behind the paper's
// Fig. 13 and Table I generalized to whole kernels.
//
//	go run ./examples/energystudy
package main

import (
	"fmt"
	"log"

	"bow/internal/artifact"
	"bow/internal/config"
	"bow/internal/core"
	"bow/internal/energy"
	"bow/internal/gpu"
	"bow/internal/workloads"
)

func run(b *workloads.Benchmark, bcfg core.Config) *gpu.Result {
	// The kernel gets the compiler pass bcfg's policy consumes.
	pk, err := artifact.BuildKernel(artifact.KeyForConfig(b.Name, bcfg, false))
	if err != nil {
		log.Fatal(err)
	}
	img, err := artifact.BuildImage(b.Name)
	if err != nil {
		log.Fatal(err)
	}
	dev, err := gpu.New(config.SimDefault(), bcfg, pk.NewSMKernel(), img.NewMemory())
	if err != nil {
		log.Fatal(err)
	}
	res, err := dev.Run(0)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"baseline", core.Config{Policy: core.PolicyBaseline}},
		{"bow-wt", core.Config{IW: 3, Policy: core.PolicyWriteThrough}},
		{"bow-wb", core.Config{IW: 3, Policy: core.PolicyWriteBack}},
		{"bow-wr", core.Config{IW: 3, Capacity: 6, Policy: core.PolicyCompilerHints}},
	}

	fmt.Printf("%-11s", "benchmark")
	for _, c := range configs {
		fmt.Printf(" %10s", c.name)
	}
	fmt.Println("   (normalized RF dynamic energy incl. overhead)")

	means := make([]float64, len(configs))
	suite := workloads.All()
	for _, b := range suite {
		var baseline float64
		fmt.Printf("%-11s", b.Name)
		for i, c := range configs {
			res := run(b, c.cfg)
			rep := energy.Compute(res.Energy)
			total := rep.TotalPJ()
			if i == 0 {
				baseline = rep.RFDynamicPJ
			}
			norm := total / baseline
			means[i] += norm / float64(len(suite))
			fmt.Printf(" %9.1f%%", 100*norm)
		}
		fmt.Println()
	}
	fmt.Printf("%-11s", "MEAN")
	for _, m := range means {
		fmt.Printf(" %9.1f%%", 100*m)
	}
	fmt.Println()
	fmt.Printf("\nBOW-WR saves %.1f%% of RF dynamic energy (paper: 55%%).\n",
		100*(1-means[len(means)-1]))
}
