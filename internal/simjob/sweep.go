package simjob

import (
	"context"
	"fmt"
	"sync"

	"bow/internal/workloads"
)

// DefaultWarmupCycles was the warm-up length of a forked sweep.
//
// Deprecated: warm-up forking was removed; the constant stays for
// callers that still read it.
const DefaultWarmupCycles = 256

// MaxSweepJobs bounds one sweep's server-side expansion — a guardrail
// against accidental (or adversarial) combinatorial blow-ups through
// cmd/bowd.
const MaxSweepJobs = 4096

// SweepSpec describes a cross-product sweep over the design space.
// Empty dimensions take the evaluation defaults: all benchmarks,
// bow-wr, IW 3, default capacity, 1 SM, default scheduler.
type SweepSpec struct {
	Benches    []string `json:"benches,omitempty"`
	Policies   []string `json:"policies,omitempty"`
	IWs        []int    `json:"iws,omitempty"`
	Capacities []int    `json:"capacities,omitempty"`
	SMs        []int    `json:"sms,omitempty"`
	Schedulers []string `json:"schedulers,omitempty"`
	MaxCycles  int64    `json:"maxCycles,omitempty"`

	// ForkPrefix is accepted and ignored: every point runs cold as its
	// own engine job.
	//
	// Deprecated: warm-up forking was removed (a baseline warm-up
	// prefix made forked points approximations that reordered the
	// paper's Fig 10); the field stays so existing /sweep clients still
	// decode under DisallowUnknownFields.
	ForkPrefix bool `json:"forkPrefix,omitempty"`
	// WarmupCycles is accepted and ignored, like ForkPrefix.
	//
	// Deprecated: kept for wire compatibility, like ForkPrefix.
	WarmupCycles int64 `json:"warmupCycles,omitempty"`

	// Batch is accepted and ignored, like ForkPrefix.
	//
	// Deprecated: lockstep batching was removed (it never beat plain
	// runs); the field stays so existing /sweep clients still decode
	// under DisallowUnknownFields.
	Batch bool `json:"batch,omitempty"`
	// BatchSize is accepted and ignored, like Batch.
	//
	// Deprecated: kept for wire compatibility, like Batch.
	BatchSize int `json:"batchSize,omitempty"`
}

// Expand materializes the cross product as normalized JobSpecs.
// Policies without a window (baseline, rfc) collapse their IW
// dimension during normalization, so the expansion may contain
// duplicate hashes — the engine's single-flight layer and cache make
// re-running them free.
func (s SweepSpec) Expand() ([]JobSpec, error) {
	benches := s.Benches
	if len(benches) == 0 {
		benches = workloads.Names()
	}
	policies := orDefault(s.Policies, []string{PolicyBOWWR})
	iws := orDefaultInts(s.IWs, []int{3})
	caps := orDefaultInts(s.Capacities, []int{0})
	sms := orDefaultInts(s.SMs, []int{1})
	scheds := orDefault(s.Schedulers, []string{""})

	n := len(benches) * len(policies) * len(iws) * len(caps) * len(sms) * len(scheds)
	if n > MaxSweepJobs {
		return nil, fmt.Errorf("simjob: sweep expands to %d jobs (max %d)", n, MaxSweepJobs)
	}
	out := make([]JobSpec, 0, n)
	for _, b := range benches {
		for _, p := range policies {
			for _, iw := range iws {
				for _, c := range caps {
					for _, sm := range sms {
						for _, sch := range scheds {
							spec, err := JobSpec{
								Bench: b, Policy: p, IW: iw, Capacity: c,
								SMs: sm, Scheduler: sch, MaxCycles: s.MaxCycles,
							}.Normalize()
							if err != nil {
								return nil, err
							}
							out = append(out, spec)
						}
					}
				}
			}
		}
	}
	return out, nil
}

// HashedSpec pairs a normalized spec with its content hash — the unit
// the cluster layer shards by.
type HashedSpec struct {
	Spec JobSpec
	Hash string
}

// ExpandHashed expands the sweep like Expand but deduplicates points
// that normalize to the same content hash (baseline and rfc collapse
// their IW dimension, so the raw cross product repeats them). It
// returns one HashedSpec per unique point plus the mapping from
// expansion index to unique index, so a scatter layer simulates each
// point once and still reports results in expansion order.
func (s SweepSpec) ExpandHashed() ([]HashedSpec, []int, error) {
	specs, err := s.Expand()
	if err != nil {
		return nil, nil, err
	}
	index := make([]int, len(specs))
	seen := make(map[string]int, len(specs))
	unique := make([]HashedSpec, 0, len(specs))
	for i, sp := range specs {
		h, err := sp.Hash()
		if err != nil {
			return nil, nil, err
		}
		u, ok := seen[h]
		if !ok {
			u = len(unique)
			seen[h] = u
			unique = append(unique, HashedSpec{Spec: sp, Hash: h})
		}
		index[i] = u
	}
	return unique, index, nil
}

// SweepItem is one expanded point's outcome inside a SweepResult.
type SweepItem struct {
	Spec   JobSpec    `json:"spec"`
	Cached string     `json:"cached,omitempty"`
	Error  string     `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`
}

// SweepResult aggregates a sweep run.
type SweepResult struct {
	Jobs   int         `json:"jobs"`
	Failed int         `json:"failed"`
	Items  []SweepItem `json:"items"`

	// ForkGroups and ReusedCycles are always 0, so they are omitted
	// from the JSON.
	//
	// Deprecated: warm-up forking was removed; the fields stay for
	// callers that still read them.
	ForkGroups   int   `json:"forkGroups,omitempty"`
	ReusedCycles int64 `json:"reusedCycles,omitempty"`

	// BatchOccupancy is always 0, like ForkGroups.
	//
	// Deprecated: lockstep batching was removed; the field stays for
	// callers that still read it.
	BatchOccupancy float64 `json:"batchOccupancy,omitempty"`
}

// RunSweep runs every unique point of the sweep once and collects the
// results in expansion order. A point the result cache holds is served
// from it; every other point is one engine job, with single-flight,
// peer fill, retries, the carcass pool and spans, so each item is
// exactly the per-job result. Individual point failures are reported
// inline; only expansion errors fail the sweep as a whole.
func (e *Engine) RunSweep(ctx context.Context, sw SweepSpec) (*SweepResult, error) {
	points, index, err := sw.ExpandHashed()
	if err != nil {
		return nil, err
	}
	tickets := make([]*Ticket, len(points))
	for u, pt := range points {
		if out, ok := e.lookup(ctx, pt.Hash, false); ok {
			tickets[u] = resolved(out, nil)
		} else {
			tickets[u] = e.enqueue(ctx, pt.Spec, pt.Hash, false)
		}
	}
	return GatherSweep(points, index, func(u int) (JobResult, string, error) {
		out, err := tickets[u].WaitContext(ctx)
		if err != nil {
			return JobResult{}, "", err
		}
		return out.Summary, out.Cached, nil
	}, nil), nil
}

// GatherSweep runs point for every unique point of a sweep
// concurrently and collects the outcomes in expansion order: index
// maps each expanded point to its unique point, as ExpandHashed
// returns them. point reports a unique point's result, its cache
// provenance and its error; a failed point becomes an item carrying
// the error and counts in Failed. onItem, when non-nil, sees each
// unique point's item as it completes, one call at a time, with
// done/total counted over unique points.
func GatherSweep(points []HashedSpec, index []int, point func(u int) (JobResult, string, error), onItem func(done, total int, item SweepItem)) *SweepResult {
	items := make([]SweepItem, len(points))
	var mu sync.Mutex
	var wg sync.WaitGroup
	done := 0
	wg.Add(len(points))
	for u := range points {
		go func(u int) {
			defer wg.Done()
			item := SweepItem{Spec: points[u].Spec}
			if sum, cached, err := point(u); err != nil {
				item.Error = err.Error()
			} else {
				item.Cached, item.Result = cached, &sum
			}
			items[u] = item
			if onItem != nil {
				mu.Lock()
				done++
				onItem(done, len(points), item)
				mu.Unlock()
			}
		}(u)
	}
	wg.Wait()
	res := &SweepResult{Jobs: len(index), Items: make([]SweepItem, len(index))}
	for i, u := range index {
		res.Items[i] = items[u]
		if items[u].Error != "" {
			res.Failed++
		}
	}
	return res
}

func orDefault(v, def []string) []string {
	if len(v) == 0 {
		return def
	}
	return v
}

func orDefaultInts(v, def []int) []int {
	if len(v) == 0 {
		return def
	}
	return v
}
