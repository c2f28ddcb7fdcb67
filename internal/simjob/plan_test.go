package simjob

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"
)

// plannerGrid is the sweep differentials' grid: three workloads under
// baseline, both BOW write policies, and the rival register-file
// architectures. The windowless policies collapse the IW axis, so the
// 36-point expansion holds 24 unique points and 12 duplicates.
var plannerGrid = SweepSpec{
	Benches:  []string{"VECTORADD", "LIB", "SAD"},
	Policies: []string{PolicyBaseline, PolicyBOWWT, PolicyBOWWR, PolicyCARFC, PolicyLTRF, PolicySCRF},
	IWs:      []int{2, 4},
}

// plannerWarmup is the warm-up length the fork leg uses.
const plannerWarmup = 64

// plannerOracle expands plannerGrid and runs each unique point once
// through an independent per-job Execute: the expansion, each point's
// hash, and the oracle outcome by hash.
func plannerOracle(t *testing.T) ([]JobSpec, []string, map[string]*Outcome) {
	t.Helper()
	specs, err := plannerGrid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	hashes := make([]string, len(specs))
	oracle := make(map[string]*Outcome)
	for i, sp := range specs {
		if hashes[i], err = sp.Hash(); err != nil {
			t.Fatal(err)
		}
		if oracle[hashes[i]] != nil {
			continue
		}
		if oracle[hashes[i]], err = Execute(context.Background(), sp); err != nil {
			t.Fatalf("%s/%s iw=%d oracle: %v", sp.Bench, sp.Policy, sp.IW, err)
		}
	}
	if len(oracle) != 24 || len(specs) != 36 {
		t.Fatalf("grid has %d points, %d unique; want 36, 24", len(specs), len(oracle))
	}
	return specs, hashes, oracle
}

// runPlannerGrid runs plannerGrid through one sweep mode on a fresh
// engine and checks each item against the oracle expansion: item i must
// answer expansion point i and carry the mode's Cached marker. Plain
// and batched items must match the per-job Execute in CanonicalJSON;
// forked items are warm-up approximations, so they must instead pass
// their functional checks and carry the reused warm-up cycles.
func runPlannerGrid(t *testing.T, batch, fork bool) (*Engine, *SweepResult, map[string]*Outcome) {
	t.Helper()
	specs, hashes, oracle := plannerOracle(t)
	cachedAs := ""
	switch {
	case batch:
		cachedAs = "batched"
	case fork:
		cachedAs = "forked"
	}
	e := newTestEngine(t, Options{Workers: 2})
	sw := plannerGrid
	sw.Batch, sw.ForkPrefix, sw.WarmupCycles = batch, fork, plannerWarmup
	res, err := e.RunSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != len(specs) || len(res.Items) != len(specs) {
		t.Fatalf("jobs=%d items=%d, want %d", res.Jobs, len(res.Items), len(specs))
	}
	for i, it := range res.Items {
		sp := specs[i]
		if it.Error != "" {
			t.Fatalf("%s/%s iw=%d: %s", sp.Bench, sp.Policy, sp.IW, it.Error)
		}
		if !reflect.DeepEqual(it.Spec, sp) {
			t.Fatalf("item %d answers %+v, want %+v", i, it.Spec, sp)
		}
		if it.Result == nil || it.Result.SpecHash != hashes[i] {
			t.Fatalf("item %d (%s/%s iw=%d) carries another point's result", i, sp.Bench, sp.Policy, sp.IW)
		}
		if it.Cached != cachedAs {
			t.Errorf("item %d cached=%q, want %q", i, it.Cached, cachedAs)
		}
		if fork {
			if !it.Result.Checked || it.Result.ReusedCycles != plannerWarmup || it.Result.Cycles <= plannerWarmup {
				t.Errorf("forked item %d: checked=%v reused=%d cycles=%d",
					i, it.Result.Checked, it.Result.ReusedCycles, it.Result.Cycles)
			}
			continue
		}
		want, _ := oracle[hashes[i]].Summary.CanonicalJSON()
		got, _ := it.Result.CanonicalJSON()
		if !bytes.Equal(got, want) {
			t.Errorf("%s/%s iw=%d: diverges from per-job Execute\n got %s\nwant %s",
				sp.Bench, sp.Policy, sp.IW, got, want)
		}
	}
	return e, res, oracle
}

// TestBatchSweepDifferential proves lockstep batch execution is exact:
// every point of the grid, run through a Batch sweep, must produce a
// result whose canonical encoding matches an independent per-job
// Execute of the same spec, and whose full gpu.Result, cached under the
// cold hash, is identical to the per-job simulator output.
func TestBatchSweepDifferential(t *testing.T) {
	e, res, oracle := runPlannerGrid(t, true, false)
	if res.BatchGroups != 3 || res.BatchedJobs != 24 {
		t.Errorf("batch groups=%d jobs=%d, want 3, 24", res.BatchGroups, res.BatchedJobs)
	}
	if res.BatchOccupancy <= 0 || res.BatchOccupancy > 1 {
		t.Errorf("occupancy %v out of range", res.BatchOccupancy)
	}
	for h, o := range oracle {
		cached, ok := e.Cache().Get(h, true)
		if !ok || !reflect.DeepEqual(cached.Full, o.Full) {
			t.Errorf("%s/%s iw=%d: batched full gpu.Result missing or divergent",
				o.Spec.Bench, o.Spec.Policy, o.Spec.IW)
		}
	}
}

// TestBatchSweepMatchesPlainSweep runs the same grid through the plain
// sweep and the batched sweep on separate engines; each item of both
// matches the per-job oracle, and the two sweeps match each other item
// by item — the end-to-end twin of the device-level differential.
func TestBatchSweepMatchesPlainSweep(t *testing.T) {
	_, plain, _ := runPlannerGrid(t, false, false)
	_, batched, _ := runPlannerGrid(t, true, false)
	if plain.Failed > 0 || batched.Failed > 0 {
		t.Fatalf("failures: plain=%d batched=%d", plain.Failed, batched.Failed)
	}
	for i := range plain.Items {
		p, b := plain.Items[i], batched.Items[i]
		pj, _ := p.Result.CanonicalJSON()
		bj, _ := b.Result.CanonicalJSON()
		if !bytes.Equal(pj, bj) {
			t.Errorf("%s/%s iw=%d: plain and batched sweeps diverge",
				p.Spec.Bench, p.Spec.Policy, p.Spec.IW)
		}
	}
}

// TestRunSweepForked covers the planner's fork steps: points sharing a
// prefix class simulate the warm-up once and each resume from its
// snapshot, with the reuse accounted in both the sweep summary and the
// per-item results, and no forked result cached under the cold hash.
func TestRunSweepForked(t *testing.T) {
	e, res, oracle := runPlannerGrid(t, false, true)
	// One fork group per bench, each of 8 unique points: the warm-up ran
	// once instead of 8 times.
	if res.ForkGroups != 3 || res.ReusedCycles != 3*plannerWarmup*(8-1) {
		t.Errorf("fork groups=%d reused=%d, want 3, %d", res.ForkGroups, res.ReusedCycles, 3*plannerWarmup*7)
	}
	// Forked results are warm-up approximations: they must never land in
	// the cache under the cold spec's hash.
	for h := range oracle {
		if _, ok := e.Cache().Get(h, false); ok {
			t.Errorf("forked result %s was cached", h)
		}
	}
}

// TestPlanSweep checks the planner's steps against a pre-seeded cache
// without simulating anything: hits are served as planned, each cold
// point costs exactly one cache miss, and the misses group into fork
// steps, batch chunks, or the cold step by mode.
func TestPlanSweep(t *testing.T) {
	base := SweepSpec{
		Benches:  []string{"SAD", "LIB", "VECTORADD"},
		Policies: []string{PolicyBaseline, PolicyBOWWT, PolicyBOWWR},
		IWs:      []int{2, 3},
	}
	// Per bench: baseline, bow-wt x2, bow-wr x2 — five unique points,
	// bench-major. Seed all of LIB but its last point, and VECTORADD.
	const sad, lib, vecadd = 0, 5, 10
	seeded := []int{lib, lib + 1, lib + 2, lib + 3, vecadd, vecadd + 1, vecadd + 2, vecadd + 3, vecadd + 4}
	points := []int{0, 1, 2, 3, 4}

	for _, tc := range []struct {
		name  string
		mod   func(*SweepSpec)
		steps []sweepStep
	}{
		{"plain", func(*SweepSpec) {}, []sweepStep{
			{stepCold, []int{sad, sad + 1, sad + 2, sad + 3, sad + 4, lib + 4}},
		}},
		{"fork", func(sw *SweepSpec) { sw.ForkPrefix = true }, []sweepStep{
			{stepFork, points},
			{stepCold, []int{lib + 4}},
		}},
		{"batch-chunked", func(sw *SweepSpec) { sw.Batch, sw.BatchSize = true, 3 }, []sweepStep{
			{stepBatch, []int{sad, sad + 1, sad + 2}},
			{stepBatch, []int{sad + 3, sad + 4}},
			{stepCold, []int{lib + 4}},
		}},
		{"batch-singleton-tail", func(sw *SweepSpec) { sw.Batch, sw.BatchSize = true, 4 }, []sweepStep{
			{stepBatch, []int{sad, sad + 1, sad + 2, sad + 3}},
			{stepCold, []int{sad + 4, lib + 4}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, Options{Workers: 1})
			e.execute = func(context.Context, JobSpec) (*Outcome, error) {
				t.Error("planning simulated a point")
				return nil, nil
			}
			sw := base
			tc.mod(&sw)
			unique, _, err := sw.ExpandHashed()
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range seeded {
				h := unique[u].Hash
				if err := e.Cache().Put(&Outcome{Hash: h, Summary: JobResult{SpecHash: h}}); err != nil {
					t.Fatal(err)
				}
			}

			p, err := e.planSweep(context.Background(), sw)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.points) != 15 || len(p.index) != 18 {
				t.Fatalf("%d unique of %d expanded, want 15 of 18", len(p.points), len(p.index))
			}
			if p.index[0] != p.index[1] || p.index[1] != sad {
				t.Errorf("baseline IW duplicates map to %d and %d, want %d", p.index[0], p.index[1], sad)
			}
			for u, hit := range p.hits {
				want := false
				for _, s := range seeded {
					want = want || s == u
				}
				if (hit != nil) != want || (hit != nil && hit.Cached != "memory") {
					t.Errorf("point %d: hit=%v, want seeded=%v", u, hit, want)
				}
			}
			if !reflect.DeepEqual(p.steps, tc.steps) {
				t.Errorf("steps = %v, want %v", p.steps, tc.steps)
			}
			if _, _, misses := e.Cache().Counters(); misses != 6 {
				t.Errorf("planning counted %d cache misses, want 6 (one per cold point)", misses)
			}
		})
	}
}

// sweepModes runs a sweep once per mode on a fresh engine.
func sweepModes(t *testing.T, opts Options, sw SweepSpec, check func(t *testing.T, e *Engine, res *SweepResult)) {
	t.Helper()
	for _, mode := range []struct {
		name        string
		batch, fork bool
	}{{"plain", false, false}, {"batch", true, false}, {"fork", false, true}} {
		t.Run(mode.name, func(t *testing.T) {
			e := newTestEngine(t, opts)
			s := sw
			s.Batch, s.ForkPrefix = mode.batch, mode.fork
			res, err := e.RunSweep(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			check(t, e, res)
		})
	}
}

// TestSweepTimeoutEveryMode: Options.Timeout bounds every simulation a
// sweep starts — engine jobs, fork warm-ups and forked points, lockstep
// chunks — so an unmeetable timeout fails every point in every mode.
func TestSweepTimeoutEveryMode(t *testing.T) {
	sw := SweepSpec{
		Benches:      []string{"SAD"},
		Policies:     []string{PolicyBOWWT, PolicyBOWWR},
		IWs:          []int{2, 3},
		WarmupCycles: 64,
	}
	sweepModes(t, Options{Workers: 2, Timeout: time.Nanosecond}, sw, func(t *testing.T, _ *Engine, res *SweepResult) {
		if res.Failed != 4 {
			t.Errorf("Failed = %d, want 4 (every point timed out)", res.Failed)
		}
	})
}

// TestSweepCacheMissesOncePerPoint: planning probes the cache once per
// unique point and cold points are never probed again on their way
// into the engine, so misses equal the unique cold points in every
// mode — for singleton classes that run cold and for classes that
// fork or batch.
func TestSweepCacheMissesOncePerPoint(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sw     SweepSpec
		misses int64
	}{
		{"singletons", SweepSpec{Benches: []string{"VECTORADD", "SAD"}, Policies: []string{PolicyBOWWR}}, 2},
		{"class-with-duplicates", SweepSpec{
			Benches: []string{"VECTORADD"}, Policies: []string{PolicyBaseline, PolicyBOWWR}, IWs: []int{2, 3},
		}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sweepModes(t, Options{Workers: 2}, tc.sw, func(t *testing.T, e *Engine, res *SweepResult) {
				if res.Failed != 0 {
					t.Fatalf("%d points failed", res.Failed)
				}
				if _, _, misses := e.Cache().Counters(); misses != tc.misses {
					t.Errorf("misses = %d, want %d", misses, tc.misses)
				}
			})
		})
	}
}

// TestForkedPointPanicIsAnItemError: a forked point runs under the
// engine's job guard, so a panicking one becomes that item's error and
// the engine keeps serving.
func TestForkedPointPanicIsAnItemError(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	e.execute = func(ctx context.Context, spec JobSpec) (*Outcome, error) {
		if len(spec.FromCheckpoint) > 0 {
			panic("injected fault in a forked point")
		}
		return Execute(ctx, spec)
	}
	sw := SweepSpec{
		Benches:      []string{"SAD"},
		Policies:     []string{PolicyBOWWT, PolicyBOWWB},
		IWs:          []int{2, 3},
		ForkPrefix:   true,
		WarmupCycles: 64,
	}
	res, err := e.RunSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if res.ForkGroups != 1 || res.Failed != 4 {
		t.Fatalf("fork groups=%d failed=%d, want 1, 4", res.ForkGroups, res.Failed)
	}
	for _, it := range res.Items {
		if !strings.Contains(it.Error, "panicked") {
			t.Errorf("%s/%s iw=%d: error %q, want the recovered panic", it.Spec.Bench, it.Spec.Policy, it.Spec.IW, it.Error)
		}
	}
	sw.ForkPrefix = false
	res, err = e.RunSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("engine did not survive the panics: %d plain points failed", res.Failed)
	}
}
