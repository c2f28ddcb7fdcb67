package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"bow/internal/simjob"
)

func testGolden(t *testing.T) *golden {
	t.Helper()
	g, err := loadGolden("../../testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testEnv(t *testing.T, g *golden) runEnv {
	return runEnv{seed: 7, nproc: runtime.NumCPU(), gold: g, tmp: t.TempDir()}
}

// TestWorkloadsSmoke runs every workload for one round (40 requests
// for serve_mix) with the golden checks on.
func TestWorkloadsSmoke(t *testing.T) {
	ctx := context.Background()
	env := testEnv(t, testGolden(t))
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			d := w.new(env)
			defer d.tearDown()
			if err := d.setUp(ctx); err != nil {
				t.Fatal(err)
			}
			// A deadline already past runs exactly one sweep round.
			ws, err := d.window(ctx, windowSpec{deadline: time.Now(), requests: 40})
			if err != nil {
				t.Fatal(err)
			}
			tl := d.tally()
			if tl.failed != 0 {
				t.Fatalf("%d of %d operations failed; first: %v", tl.failed, tl.attempted, tl.firstErr)
			}
			if ws.ops == 0 || len(ws.latMS) == 0 {
				t.Fatalf("window measured nothing: %+v", ws)
			}
			if w.name == "serve_mix" && (ws.memHits == 0 || ws.diskHits == 0 || len(ws.coldMS) == 0) {
				t.Errorf("mix missed a tier: %d memory hits, %d disk hits, %d cold", ws.memHits, ws.diskHits, len(ws.coldMS))
			}
		})
	}
}

// TestDecomposedMatchesExecute holds the decomposed executor to
// simjob.Execute: bit-identical gpu.Result for one point per policy.
func TestDecomposedMatchesExecute(t *testing.T) {
	ctx := context.Background()
	x := &decomposer{log: newSpanLog(), gold: testGolden(t)}
	for i, p := range simjob.AllPolicies() {
		spec := simjob.JobSpec{Bench: "VECTORADD", Policy: p}
		pr, err := x.run(ctx, spec, i)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		out, err := simjob.Execute(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pr.res, out.Full) {
			t.Errorf("%s: decomposed gpu.Result differs from simjob.Execute", p)
		}
	}
	if _, err := x.fork(ctx, "SAD", simjob.DefaultWarmupCycles); err != nil {
		t.Errorf("forked warm-up replay: %v", err)
	}
}

// TestGoldenReportsFlippedDigest perturbs one committed digest and
// expects a sweep round to count exactly that point as failed.
func TestGoldenReportsFlippedDigest(t *testing.T) {
	g := testGolden(t)
	specs := expandAll(crossPolicySweep())
	hash, err := specs[len(specs)/2].Hash()
	if err != nil {
		t.Fatal(err)
	}
	flipped := &golden{Digests: map[string]string{}}
	for k, v := range g.Digests {
		flipped.Digests[k] = v
	}
	d := []byte(flipped.Digests[hash])
	d[0] ^= 1 // '0'<->'1', 'a'<->'`'...: still a different digest
	flipped.Digests[hash] = string(d)

	sw := newSweep(testEnv(t, flipped), crossPolicySweep())
	if _, err := sw.round(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	if sw.t.failed != 1 || sw.t.attempted != len(specs) {
		t.Fatalf("failed %d of %d, want 1 of %d", sw.t.failed, sw.t.attempted, len(specs))
	}
	if !strings.Contains(sw.t.firstErr.Error(), hash) {
		t.Errorf("mismatch report %q does not name %s", sw.t.firstErr, hash)
	}
}

func TestCPUSharesOfCannedListing(t *testing.T) {
	raw, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := parseTraces(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 11 {
		t.Fatalf("parsed %d samples, want 11", len(samples))
	}
	shares, err := cpuShares(samples)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if len(shares) != len(cpuBuckets()) {
		t.Errorf("%d buckets, want %d", len(shares), len(cpuBuckets()))
	}
	for bucket, want := range map[string]float64{
		"sm": 0.2, "scoreboard": 0.1, "runtime.gc": 0.15, "runtime.alloc": 0.1,
		"runtime.copy": 0.05, "artifact": 0.05, "json": 0.00005, "net": 0.04995,
		"other": 0.3, "exec": 0, "regfile": 0, "gpu": 0,
	} {
		if math.Abs(shares[bucket]-want) > 1e-9 {
			t.Errorf("%s share = %v, want %v", bucket, shares[bucket], want)
		}
	}
	loop, err := cpuShares(labelled(samples, "loop", "bow-wr"))
	if err != nil || loop["sm"] != 1 {
		t.Errorf("labelled bow-wr loop shares = %v, %v; want all sm", loop, err)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables this program prints in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	asDefs := func(ms []metricDef) []def {
		out := make([]def, len(ms))
		for i, m := range ms {
			out[i] = def(m)
		}
		return out
	}
	if !reflect.DeepEqual(bf.EndToEnd, asDefs(endToEnd)) {
		t.Errorf("end_to_end\n got %v\nwant %v", bf.EndToEnd, asDefs(endToEnd))
	}
	if !reflect.DeepEqual(bf.PerLayer, asDefs(perLayer())) {
		t.Errorf("per_layer\n got %v\nwant %v", bf.PerLayer, asDefs(perLayer()))
	}
	if len(bf.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads, want %d", len(bf.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, bf.Workloads[i], w.name, w.why)
		}
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(by float64) []float64 {
		out := make([]float64, len(parent))
		for i, p := range parent {
			out[i] = p * by
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		wins   float64
		better string
		want   string
	}{
		{"same", parent, 0.4, higher, "unchanged"},
		{"every run faster", shift(1.2), 1, higher, "better"},
		{"slower beyond bound", shift(0.85), 0, higher, "worse"},
		{"slower within bound", shift(0.95), 0, higher, "unchanged"},
		{"lower is better", shift(0.8), 1, lower, "better"},
	} {
		got := verdict(comparison{parent: parent, change: tc.change, pairWins: tc.wins, pairs: len(parent)}, tc.better, 0.1)
		if got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	noisy := []float64{50, 150, 80, 120, 100, 60, 140, 100, 90, 110}
	if got := verdict(comparison{parent: noisy, change: noisy, pairWins: 0.5, pairs: 10}, higher, 0.1); got != "unresolved" {
		t.Errorf("noisy parent: verdict %s, want unresolved", got)
	}
}
