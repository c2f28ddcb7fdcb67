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

	"bow/internal/workloads"
)

func TestSweepExpandDefaults(t *testing.T) {
	specs, err := SweepSpec{}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(workloads.Names()) {
		t.Fatalf("default sweep expanded to %d jobs, want one per benchmark (%d)",
			len(specs), len(workloads.Names()))
	}
	for _, s := range specs {
		if s.Policy != PolicyBOWWR || s.IW != 3 {
			t.Errorf("default point not bow-wr IW3: %+v", s)
		}
	}
}

func TestSweepExpandCrossProduct(t *testing.T) {
	sw := SweepSpec{
		Benches:  []string{"VECTORADD", "LIB"},
		Policies: []string{"baseline", "bow-wb"},
		IWs:      []int{2, 3},
	}
	specs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 8 {
		t.Fatalf("expanded to %d, want 8", len(specs))
	}
	// The baseline×IW axis collapses to duplicate hashes, which the
	// engine's dedup layers absorb.
	hashes := map[string]bool{}
	for _, s := range specs {
		h, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		hashes[h] = true
	}
	if len(hashes) != 6 { // 2 benches × (1 baseline + 2 bow-wb points)
		t.Errorf("unique hashes = %d, want 6", len(hashes))
	}
}

func TestSweepExpandGuardrail(t *testing.T) {
	sw := SweepSpec{
		IWs:        []int{2, 3, 4, 5, 6, 7},
		Capacities: []int{3, 6, 12, 24},
		SMs:        []int{1, 2, 4},
		Policies:   []string{"bow-wt", "bow-wb", "bow-wr"},
		Schedulers: []string{"gto", "lrr"},
	}
	if _, err := sw.Expand(); err == nil {
		t.Error("oversized sweep expansion not rejected")
	}
}

func TestRunSweep(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 4})
	sw := SweepSpec{
		Benches:  []string{"VECTORADD", "SRAD"},
		Policies: []string{"baseline", "bow-wb"},
	}
	res, err := e.RunSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 4 || res.Failed != 0 {
		t.Fatalf("sweep jobs=%d failed=%d, want 4/0", res.Jobs, res.Failed)
	}
	for i, item := range res.Items {
		if item.Result == nil {
			t.Fatalf("item %d has no result: %+v", i, item)
		}
		if item.Result.Cycles <= 0 || item.Result.Executed <= 0 {
			t.Errorf("item %d has empty counters: %+v", i, item.Result)
		}
	}
	// Bypassing must beat baseline on RF reads for the same kernel.
	base, bow := res.Items[0].Result, res.Items[1].Result
	if base.Bench != bow.Bench {
		t.Fatalf("unexpected item order: %s vs %s", base.Bench, bow.Bench)
	}
	if bow.RFReads >= base.RFReads {
		t.Errorf("bow-wb RF reads %d not below baseline %d", bow.RFReads, base.RFReads)
	}
}

func TestExpandHashedDedup(t *testing.T) {
	// baseline collapses the IW dimension, so 2 benches x (baseline x 2
	// IWs + bow-wr x 2 IWs) = 8 expanded points but only 6 unique.
	sw := SweepSpec{
		Benches:  []string{"VECTORADD", "SRAD"},
		Policies: []string{"baseline", "bow-wr"},
		IWs:      []int{2, 4},
	}
	specs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	unique, index, err := sw.ExpandHashed()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 8 || len(index) != 8 {
		t.Fatalf("expansion %d / index %d, want 8", len(specs), len(index))
	}
	if len(unique) != 6 {
		t.Fatalf("unique points = %d, want 6", len(unique))
	}
	seen := make(map[string]bool)
	for _, u := range unique {
		if u.Hash == "" || seen[u.Hash] {
			t.Fatalf("bad or duplicate hash %q", u.Hash)
		}
		seen[u.Hash] = true
	}
	// The mapping must send every expansion point to the unique entry
	// with its own hash.
	for i, sp := range specs {
		h, err := sp.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if unique[index[i]].Hash != h {
			t.Errorf("index[%d] -> %s, want %s", i, unique[index[i]].Hash, h)
		}
	}
}

// sweepGrid is the sweep differential's grid: three workloads under
// baseline, both BOW write policies, and the rival register-file
// architectures. The windowless policies collapse the IW axis, so the
// 36-point expansion holds 24 unique points and 12 duplicates.
var sweepGrid = SweepSpec{
	Benches:  []string{"VECTORADD", "LIB", "SAD"},
	Policies: []string{PolicyBaseline, PolicyBOWWT, PolicyBOWWR, PolicyCARFC, PolicyLTRF, PolicySCRF},
	IWs:      []int{2, 4},
}

// sweepFields is one group of deprecated /sweep request fields, which
// a sweep accepts and ignores: setting it must change nothing about
// the sweep. wire is how the group appears in a request body.
type sweepFields struct {
	name string
	set  func(*SweepSpec)
	wire string
}

var (
	batchFields = sweepFields{"batch", func(sw *SweepSpec) { sw.Batch, sw.BatchSize = true, 4 }, `"batch":true,"batchSize":4`}
	forkFields  = sweepFields{"fork", func(sw *SweepSpec) { sw.ForkPrefix, sw.WarmupCycles = true, 768 }, `"forkPrefix":true,"warmupCycles":768`}

	// deprecatedSweepFields are every deprecated field group.
	deprecatedSweepFields = []sweepFields{batchFields, forkFields}
)

// gridOracle expands sweepGrid and runs each unique point once through
// an independent per-job Execute: the expansion, each point's hash,
// and the oracle outcome by hash.
func gridOracle(t *testing.T) ([]JobSpec, []string, map[string]*Outcome) {
	t.Helper()
	specs, err := sweepGrid.Expand()
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

// postSweep posts body to srv's /sweep and decodes the 200 answer.
func postSweep(t *testing.T, srv *httptest.Server, body []byte) *SweepResult {
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
	return &res
}

// checkFieldsExact runs sweepGrid with f set on a fresh engine and
// proves it exact: every item answers its expansion point, matches an
// independent per-job Execute in CanonicalJSON and comes fresh from
// the engine; the full gpu.Result is cached under the cold hash; the
// deprecated result fields read 0.
func checkFieldsExact(t *testing.T, f sweepFields) {
	t.Helper()
	specs, hashes, oracle := gridOracle(t)
	sw := sweepGrid
	f.set(&sw)
	e := newTestEngine(t, Options{Workers: 2})
	res, err := e.RunSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != len(specs) || len(res.Items) != len(specs) || res.Failed != 0 {
		t.Fatalf("jobs=%d items=%d failed=%d, want %d, %d, 0", res.Jobs, len(res.Items), res.Failed, len(specs), len(specs))
	}
	if res.ForkGroups != 0 || res.ReusedCycles != 0 || res.BatchOccupancy != 0 {
		t.Errorf("fork groups=%d reused=%d occupancy=%v, want all 0", res.ForkGroups, res.ReusedCycles, res.BatchOccupancy)
	}
	for i, it := range res.Items {
		sp := specs[i]
		if !reflect.DeepEqual(it.Spec, sp) {
			t.Fatalf("item %d answers %+v, want %+v", i, it.Spec, sp)
		}
		if it.Result == nil || it.Result.SpecHash != hashes[i] {
			t.Fatalf("item %d (%s/%s iw=%d) carries another point's result", i, sp.Bench, sp.Policy, sp.IW)
		}
		if it.Cached != "" || it.Result.ReusedCycles != 0 {
			t.Errorf("item %d cached=%q reused=%d, want a fresh exact run", i, it.Cached, it.Result.ReusedCycles)
		}
		want, _ := oracle[hashes[i]].Summary.CanonicalJSON()
		got, _ := it.Result.CanonicalJSON()
		if !bytes.Equal(got, want) {
			t.Errorf("%s/%s iw=%d: diverges from per-job Execute\n got %s\nwant %s", sp.Bench, sp.Policy, sp.IW, got, want)
		}
	}
	for h, o := range oracle {
		cached, ok := e.Cache().Get(h, true)
		if !ok || !reflect.DeepEqual(cached.Full, o.Full) {
			t.Errorf("%s/%s iw=%d: full gpu.Result missing or divergent under the cold hash",
				o.Spec.Bench, o.Spec.Policy, o.Spec.IW)
		}
	}
}

// checkFieldsWire pins wire compatibility for f: POST /sweep of
// sweepGrid with f set answers 200 with the plain body's items, item
// by item in CanonicalJSON and in Cached markers, and a repeat is
// served from the memory tier.
func checkFieldsWire(t *testing.T, f sweepFields) {
	t.Helper()
	plainBody, err := json.Marshal(sweepGrid)
	if err != nil {
		t.Fatal(err)
	}
	plainSrv := httptest.NewServer(NewServer(newTestEngine(t, Options{Workers: 2})))
	defer plainSrv.Close()
	plain := postSweep(t, plainSrv, plainBody)

	sw := sweepGrid
	f.set(&sw)
	body, err := json.Marshal(sw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(f.wire)) {
		t.Fatalf("request does not carry %s: %s", f.wire, body)
	}
	srv := httptest.NewServer(NewServer(newTestEngine(t, Options{Workers: 2})))
	defer srv.Close()
	got := postSweep(t, srv, body)
	if got.Failed != 0 || len(got.Items) != len(plain.Items) {
		t.Fatalf("failed=%d items=%d, want 0, %d", got.Failed, len(got.Items), len(plain.Items))
	}
	for i, it := range got.Items {
		p := plain.Items[i]
		pj, _ := p.Result.CanonicalJSON()
		ij, _ := it.Result.CanonicalJSON()
		if !bytes.Equal(pj, ij) || it.Cached != p.Cached {
			t.Errorf("%s/%s iw=%d: diverges from the plain body (cached %q vs %q)",
				p.Spec.Bench, p.Spec.Policy, p.Spec.IW, it.Cached, p.Cached)
		}
	}
	for _, it := range postSweep(t, srv, body).Items {
		if it.Cached != "memory" {
			t.Errorf("%s/%s iw=%d: repeat served %q, want memory", it.Spec.Bench, it.Spec.Policy, it.Spec.IW, it.Cached)
		}
	}
}

// TestBatchSweepDifferential proves a sweep carrying the deprecated
// Batch and BatchSize fields is exact (checkFieldsExact).
func TestBatchSweepDifferential(t *testing.T) {
	checkFieldsExact(t, batchFields)
}

// TestBatchSweepMatchesPlainSweep proves /sweep answers a body
// carrying the deprecated Batch and BatchSize fields exactly like the
// plain body (checkFieldsWire).
func TestBatchSweepMatchesPlainSweep(t *testing.T) {
	checkFieldsWire(t, batchFields)
}

// TestBatchSweepServesCacheHits proves a second sweep carrying the
// deprecated Batch field is answered from the result cache without
// simulating any point.
func TestBatchSweepServesCacheHits(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	sw := SweepSpec{Benches: []string{"VECTORADD"}, Policies: []string{PolicyBOWWT}, IWs: []int{2, 3, 4}}
	batchFields.set(&sw)
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

// TestDeprecatedSweepFields holds the deprecated-fields differential
// for the groups without tests of their own (the batch group has the
// TestBatchSweep* tests): each row must be exact (checkFieldsExact)
// and answer over /sweep like the plain body (checkFieldsWire).
func TestDeprecatedSweepFields(t *testing.T) {
	for _, f := range []sweepFields{forkFields} {
		t.Run(f.name, func(t *testing.T) {
			checkFieldsExact(t, f)
			checkFieldsWire(t, f)
		})
	}
}

// sweepModes runs a sweep on a fresh engine once plain and once per
// deprecated field group, which must change nothing.
func sweepModes(t *testing.T, opts Options, sw SweepSpec, check func(t *testing.T, e *Engine, res *SweepResult)) {
	t.Helper()
	run := func(name string, set func(*SweepSpec)) {
		t.Run(name, func(t *testing.T) {
			e := newTestEngine(t, opts)
			s := sw
			set(&s)
			res, err := e.RunSweep(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			check(t, e, res)
		})
	}
	run("plain", func(*SweepSpec) {})
	for _, f := range deprecatedSweepFields {
		run(f.name, f.set)
	}
}

// TestSweepTimeoutEveryMode: Options.Timeout bounds every simulation a
// sweep starts, so an unmeetable timeout fails every point in every
// mode.
func TestSweepTimeoutEveryMode(t *testing.T) {
	sw := SweepSpec{
		Benches:  []string{"SAD"},
		Policies: []string{PolicyBOWWT, PolicyBOWWR},
		IWs:      []int{2, 3},
	}
	sweepModes(t, Options{Workers: 2, Timeout: time.Nanosecond}, sw, func(t *testing.T, _ *Engine, res *SweepResult) {
		if res.Failed != 4 {
			t.Errorf("Failed = %d, want 4 (every point timed out)", res.Failed)
		}
	})
}

// TestSweepCacheMissesOncePerPoint: a sweep probes the cache once per
// unique point, and a missed point is never probed again on its way
// into the engine, so misses equal the unique points in every mode.
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

// TestSweepPointPanicIsAnItemError: a sweep point runs under the
// engine's job guard, so a panicking one becomes that item's error and
// the engine keeps serving.
func TestSweepPointPanicIsAnItemError(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	e.execute = func(ctx context.Context, spec JobSpec) (*Outcome, error) {
		if spec.Policy == PolicyBOWWT {
			panic("injected fault in a sweep point")
		}
		return Execute(ctx, spec)
	}
	sw := SweepSpec{
		Benches:  []string{"SAD"},
		Policies: []string{PolicyBOWWT, PolicyBOWWB},
		IWs:      []int{2, 3},
	}
	res, err := e.RunSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 2 {
		t.Fatalf("failed=%d, want 2", res.Failed)
	}
	for _, it := range res.Items {
		panicked := strings.Contains(it.Error, "panicked")
		if panicked != (it.Spec.Policy == PolicyBOWWT) {
			t.Errorf("%s/%s iw=%d: error %q", it.Spec.Bench, it.Spec.Policy, it.Spec.IW, it.Error)
		}
	}
	sw.Policies = []string{PolicyBOWWR}
	if res, err = e.RunSweep(context.Background(), sw); err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("engine did not survive the panics: %d points failed", res.Failed)
	}
}
