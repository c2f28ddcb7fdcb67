package simjob

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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

// runPlannerGrid runs sw, a variant of plannerGrid that may set the
// fork or the deprecated batch fields, on a fresh engine and checks
// each item against the oracle expansion: item i must answer expansion
// point i and carry the mode's Cached marker. Plain items must match
// the per-job Execute in CanonicalJSON; forked items are warm-up
// approximations, so they must instead pass their functional checks
// and carry the reused warm-up cycles.
func runPlannerGrid(t *testing.T, sw SweepSpec) (*Engine, *SweepResult, map[string]*Outcome) {
	t.Helper()
	specs, hashes, oracle := plannerOracle(t)
	fork := sw.ForkPrefix
	cachedAs := ""
	if fork {
		cachedAs = "forked"
	}
	e := newTestEngine(t, Options{Workers: 2})
	sw.WarmupCycles = plannerWarmup
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

// TestBatchSweepDifferential proves a sweep carrying the deprecated
// Batch and BatchSize fields is exact: every point of the grid must
// produce a result whose canonical encoding matches an independent
// per-job Execute of the same spec, and whose full gpu.Result, cached
// under the cold hash, is identical to the per-job simulator output.
func TestBatchSweepDifferential(t *testing.T) {
	sw := plannerGrid
	sw.Batch, sw.BatchSize = true, 4
	e, res, oracle := runPlannerGrid(t, sw)
	if res.BatchOccupancy != 0 {
		t.Errorf("occupancy %v, want 0: no point runs in a batch", res.BatchOccupancy)
	}
	for h, o := range oracle {
		cached, ok := e.Cache().Get(h, true)
		if !ok || !reflect.DeepEqual(cached.Full, o.Full) {
			t.Errorf("%s/%s iw=%d: full gpu.Result missing or divergent",
				o.Spec.Bench, o.Spec.Policy, o.Spec.IW)
		}
	}
}

// TestBatchSweepServesCacheHits proves a second sweep carrying the
// deprecated Batch field is answered from the result cache without
// simulating any point.
func TestBatchSweepServesCacheHits(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	sw := SweepSpec{Benches: []string{"VECTORADD"}, Policies: []string{PolicyBOWWT}, IWs: []int{2, 3, 4}, Batch: true}
	first, err := e.RunSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range first.Items {
		if it.Error != "" || it.Cached != "" {
			t.Fatalf("%s iw=%d: first sweep served %q (error %q), want a simulation",
				it.Spec.Bench, it.Spec.IW, it.Cached, it.Error)
		}
	}
	second, err := e.RunSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Items) != 3 {
		t.Fatalf("second sweep has %d items, want 3", len(second.Items))
	}
	for _, it := range second.Items {
		if it.Cached != "memory" {
			t.Fatalf("%s iw=%d served %q, want memory hit", it.Spec.Bench, it.Spec.IW, it.Cached)
		}
	}
}

// TestBatchSweepMatchesPlainSweep pins wire compatibility for the
// deprecated Batch and BatchSize fields: a /sweep request carrying them
// over plannerGrid is accepted and answered exactly like the plain
// sweep — item by item in CanonicalJSON and in Cached markers — and a
// repeat is served from the memory tier.
func TestBatchSweepMatchesPlainSweep(t *testing.T) {
	_, plain, _ := runPlannerGrid(t, plannerGrid)
	srv := httptest.NewServer(NewServer(newTestEngine(t, Options{Workers: 2})))
	defer srv.Close()
	sw := plannerGrid
	sw.Batch, sw.BatchSize = true, 4
	body, err := json.Marshal(sw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`"batch":true,"batchSize":4`)) {
		t.Fatalf("request does not carry the deprecated fields: %s", body)
	}
	post := func() *SweepResult {
		t.Helper()
		resp, err := http.Post(srv.URL+"/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
		var res SweepResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		if res.Failed > 0 || len(res.Items) != len(plain.Items) {
			t.Fatalf("failed=%d items=%d, want 0, %d", res.Failed, len(res.Items), len(plain.Items))
		}
		return &res
	}
	for i, b := range post().Items {
		p := plain.Items[i]
		pj, _ := p.Result.CanonicalJSON()
		bj, _ := b.Result.CanonicalJSON()
		if !bytes.Equal(pj, bj) || b.Cached != p.Cached {
			t.Errorf("%s/%s iw=%d: batch request diverges from the plain sweep (cached %q vs %q)",
				p.Spec.Bench, p.Spec.Policy, p.Spec.IW, b.Cached, p.Cached)
		}
	}
	for _, it := range post().Items {
		if it.Cached != "memory" {
			t.Errorf("%s/%s iw=%d: repeat served %q, want memory", it.Spec.Bench, it.Spec.Policy, it.Spec.IW, it.Cached)
		}
	}
}

// TestRunSweepForked covers the planner's fork steps: points sharing a
// prefix class simulate the warm-up once and each resume from its
// snapshot, with the reuse accounted in both the sweep summary and the
// per-item results, and no forked result cached under the cold hash.
func TestRunSweepForked(t *testing.T) {
	sw := plannerGrid
	sw.ForkPrefix = true
	e, res, oracle := runPlannerGrid(t, sw)
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
// steps or the cold step by mode. The deprecated Batch and BatchSize
// fields plan exactly like a plain sweep.
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
			{stepCold, []int{sad, sad + 1, sad + 2, sad + 3, sad + 4, lib + 4}},
		}},
		{"batch-singleton-tail", func(sw *SweepSpec) { sw.Batch, sw.BatchSize = true, 4 }, []sweepStep{
			{stepCold, []int{sad, sad + 1, sad + 2, sad + 3, sad + 4, lib + 4}},
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

// sweepModes runs a sweep once per mode on a fresh engine. The batch
// mode sets the deprecated Batch fields, which must change nothing.
func sweepModes(t *testing.T, opts Options, sw SweepSpec, check func(t *testing.T, e *Engine, res *SweepResult)) {
	t.Helper()
	for _, mode := range []struct {
		name        string
		batch, fork bool
	}{{"plain", false, false}, {"batch", true, false}, {"fork", false, true}} {
		t.Run(mode.name, func(t *testing.T) {
			e := newTestEngine(t, opts)
			s := sw
			s.ForkPrefix = mode.fork
			if mode.batch {
				s.Batch, s.BatchSize = true, 4
			}
			res, err := e.RunSweep(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			check(t, e, res)
		})
	}
}

// TestSweepTimeoutEveryMode: Options.Timeout bounds every simulation a
// sweep starts — engine jobs, fork warm-ups and forked points — so an
// unmeetable timeout fails every point in every mode.
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
// fork.
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
