package simjob

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// SimRatePoint is one measured (workload, policy) throughput sample of
// the simulator itself: how many simulated cycles and instructions the
// host retires per wall-clock second, and how much garbage each
// simulated cycle produces. RefCyclesPerSec/Speedup compare against
// the in-tree reference cycle loop (config.GPU.ReferenceLoop), the
// seed implementation kept as the differential oracle.
type SimRatePoint struct {
	Workload        string  `json:"workload"`
	Policy          string  `json:"policy"`
	CyclesPerSec    float64 `json:"cycles_per_sec"`
	InstsPerSec     float64 `json:"insts_per_sec"`
	AllocsPerCycle  float64 `json:"allocs_per_cycle"`
	RefCyclesPerSec float64 `json:"ref_cycles_per_sec,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
}

// SimRateReport is the schema of BENCH_simrate.json.
type SimRateReport struct {
	GitSHA   string         `json:"git_sha"`
	SeedNote string         `json:"seed_note,omitempty"`
	Points   []SimRatePoint `json:"points"`
}

// MeasureSimRate runs the spec's simulation repeatedly (inline, no
// engine, no cache) for at least minWall and returns the throughput.
// Allocations are measured with runtime.MemStats deltas over the same
// window, so the figure includes everything the run path allocates.
func MeasureSimRate(spec JobSpec, minWall time.Duration) (SimRatePoint, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return SimRatePoint{}, err
	}
	var cycles, insts int64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	runs := 0
	for time.Since(start) < minWall || runs == 0 {
		out, err := Execute(context.Background(), spec)
		if err != nil {
			return SimRatePoint{}, err
		}
		cycles += out.Full.Cycles
		insts += out.Full.Stats.Executed
		runs++
	}
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	p := SimRatePoint{
		Workload:     spec.Bench,
		Policy:       spec.Policy,
		CyclesPerSec: float64(cycles) / elapsed,
		InstsPerSec:  float64(insts) / elapsed,
	}
	if cycles > 0 {
		p.AllocsPerCycle = float64(after.Mallocs-before.Mallocs) / float64(cycles)
	}
	return p, nil
}

// MeasureSimRateVsReference measures the spec under both cycle loops
// and fills the comparison fields.
func MeasureSimRateVsReference(spec JobSpec, minWall time.Duration) (SimRatePoint, error) {
	spec.ReferenceLoop = false
	p, err := MeasureSimRate(spec, minWall)
	if err != nil {
		return p, err
	}
	refSpec := spec
	refSpec.ReferenceLoop = true
	ref, err := MeasureSimRate(refSpec, minWall)
	if err != nil {
		return p, err
	}
	p.RefCyclesPerSec = ref.CyclesPerSec
	if ref.CyclesPerSec > 0 {
		p.Speedup = p.CyclesPerSec / ref.CyclesPerSec
	}
	return p, nil
}

// GitSHA returns the repository HEAD commit, or "unknown" outside a
// git checkout (the serving container, an exported tarball).
func GitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// WriteSimRateReport measures every (workload, policy) pair and writes
// the JSON report to path. progress, when non-nil, receives one line
// per finished point.
func WriteSimRateReport(path string, workloads, policies []string,
	minWall time.Duration, seedNote string, progress func(string)) error {
	rep := SimRateReport{GitSHA: GitSHA(), SeedNote: seedNote}
	for _, wl := range workloads {
		for _, pol := range policies {
			p, err := MeasureSimRateVsReference(JobSpec{Bench: wl, Policy: pol}, minWall)
			if err != nil {
				return fmt.Errorf("simrate %s/%s: %w", wl, pol, err)
			}
			rep.Points = append(rep.Points, p)
			if progress != nil {
				progress(fmt.Sprintf("%-10s %-8s %11.0f cyc/s (ref %11.0f, %.2fx) %6.2f allocs/cyc",
					p.Workload, p.Policy, p.CyclesPerSec, p.RefCyclesPerSec, p.Speedup, p.AllocsPerCycle))
			}
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
