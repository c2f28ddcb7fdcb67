package durable

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"bow/internal/cluster"
	"bow/internal/simjob"
)

// servingStack is one coordinator mode behind its HTTP server, in front
// of a worker fleet.
type servingStack struct {
	name    string
	url     string
	key     string // API key sent on every request ("" = none)
	durable bool
	drain   func()
	// families are the Prometheus metric prefixes /metrics must serve.
	families []string
}

// startServingStacks builds the plain coordinator (cluster.Server) and
// the durable one (durable.Server) in front of the same worker. The
// durable stack knows two tenants: "pin" without limits and "small"
// with an in-flight quota of one job.
func startServingStacks(t *testing.T, worker string) []servingStack {
	t.Helper()
	plainCoord, err := cluster.New(fastClusterOpts(), worker)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plainCoord.Close)
	plain := cluster.NewServer(plainCoord)

	coord, err := cluster.New(fastClusterOpts(), worker)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	svc, _, err := NewService(ServiceOptions{
		WALDir: t.TempDir(),
		Tenants: []Tenant{
			{Name: "pin", APIKey: "pin-key"},
			{Name: "small", APIKey: "small-key", MaxInflight: 1},
		},
		Dispatch: func(ctx context.Context, spec simjob.JobSpec) (simjob.JobResult, error) {
			res, _, err := coord.Do(ctx, spec)
			return res, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	dur := NewServer(svc, coord)

	return []servingStack{
		{
			name: "cluster", url: newHTTPServer(t, plain), drain: plain.StartDraining,
			families: []string{"bow_cluster_", "bow_span"},
		},
		{
			name: "durable", url: newHTTPServer(t, dur), key: "pin-key", durable: true,
			drain:    dur.StartDraining,
			families: []string{"bow_cluster_", "bow_wal_", "bow_tenant_", "bow_span"},
		},
	}
}

// servingCall is one request against a stack.
type servingCall struct {
	method, path, body string
	header             map[string]string // overrides; a "" value deletes
}

func (st servingStack) do(t *testing.T, c servingCall) (*http.Response, []byte) {
	t.Helper()
	if c.method == "" {
		c.method = http.MethodPost
	}
	req, err := http.NewRequest(c.method, st.url+c.path, strings.NewReader(c.body))
	if err != nil {
		t.Fatal(err)
	}
	if st.key != "" {
		req.Header.Set(APIKeyHeader, st.key)
	}
	for k, v := range c.header {
		if v == "" {
			req.Header.Del(k)
		} else {
			req.Header.Set(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestServingContract pins the HTTP surface both coordinator modes
// serve: method checks, body and spec validation, sweep validation on
// the plain and streamed answers, tenancy rejections, readiness,
// metrics negotiation and the NDJSON stream's shape.
func TestServingContract(t *testing.T) {
	if testing.Short() {
		t.Skip("serving contract runs real simulations")
	}
	worker := startRealWorker(t, nil)
	stacks := startServingStacks(t, worker)

	// More than MaxSweepJobs points: 65 windows x 64 capacities.
	var iws, caps []string
	for i := 1; i <= 65; i++ {
		iws = append(iws, fmt.Sprint(i))
	}
	for i := 1; i <= 64; i++ {
		caps = append(caps, fmt.Sprint(i))
	}
	hugeSweep := `{"benches":["VECTORADD"],"iws":[` + strings.Join(iws, ",") +
		`],"capacities":[` + strings.Join(caps, ",") + `]}`
	unknownBenchSweep := `{"benches":["NOPE"],"policies":["bow-wr"]}`
	ndjson := map[string]string{"Accept": "application/x-ndjson"}

	type contractCase struct {
		name        string
		call        servingCall
		want        int
		durableOnly bool
	}
	cases := []contractCase{
		// Bad input is the caller's fault.
		{name: "malformed body", call: servingCall{path: "/simulate", body: `{bad`}, want: 400},
		{name: "unknown field", call: servingCall{path: "/simulate", body: `{"bench":"VECTORADD","bogus":1}`}, want: 400},
		{name: "bad spec", call: servingCall{path: "/simulate", body: `{"bench":"VECTORADD","policy":"nope"}`}, want: 400},
		{name: "unknown bench sweep", call: servingCall{path: "/sweep", body: unknownBenchSweep}, want: 400},
		{name: "unknown bench sweep streamed", call: servingCall{path: "/sweep?stream=1", body: unknownBenchSweep}, want: 400},
		{name: "unknown bench sweep ndjson", call: servingCall{path: "/sweep", body: unknownBenchSweep, header: ndjson}, want: 400},
		{name: "huge sweep", call: servingCall{path: "/sweep", body: hugeSweep}, want: 400},
		{name: "huge sweep streamed", call: servingCall{path: "/sweep?stream=1", body: hugeSweep}, want: 400},
		{name: "bad sweep body", call: servingCall{path: "/sweep", body: `{"benches":"SAD"}`}, want: 400},
		{name: "join without addr", call: servingCall{path: "/join", body: `{}`}, want: 400},
		{name: "leave without addr", call: servingCall{path: "/leave", body: `{}`}, want: 400},

		// Tenancy.
		{name: "missing key", call: servingCall{path: "/simulate", body: `{"bench":"VECTORADD"}`,
			header: map[string]string{APIKeyHeader: ""}}, want: 401, durableOnly: true},
		{name: "unknown key", call: servingCall{path: "/sweep", body: `{"benches":["VECTORADD"]}`,
			header: map[string]string{APIKeyHeader: "wrong"}}, want: 401, durableOnly: true},
		{name: "quota exhausted", call: servingCall{path: "/sweep", body: `{"benches":["VECTORADD"],"iws":[5,6]}`,
			header: map[string]string{APIKeyHeader: "small-key"}}, want: 429, durableOnly: true},
		{name: "tenant without key", call: servingCall{path: "/tenants", body: `{"name":"x"}`}, want: 400, durableOnly: true},
	}
	// A wrong method answers 405 on every route.
	for _, path := range []string{"/simulate", "/sweep", "/join", "/leave"} {
		cases = append(cases, contractCase{name: "GET " + path, call: servingCall{method: http.MethodGet, path: path}, want: 405})
	}
	for _, path := range []string{"/spans", "/status", "/healthz", "/readyz", "/metrics"} {
		cases = append(cases, contractCase{name: "POST " + path, call: servingCall{path: path, body: `{}`}, want: 405})
	}
	for _, path := range []string{"/wal", "/wal/stat"} {
		cases = append(cases, contractCase{name: "POST " + path, call: servingCall{path: path, body: `{}`}, want: 405, durableOnly: true})
	}
	cases = append(cases, contractCase{name: "PUT /tenants", call: servingCall{method: http.MethodPut, path: "/tenants"}, want: 405, durableOnly: true})

	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			for _, c := range cases {
				if c.durableOnly && !st.durable {
					continue
				}
				resp, raw := st.do(t, c.call)
				if resp.StatusCode != c.want {
					t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.want, raw)
				}
			}

			// A good point, so span families have something to report.
			resp, raw := st.do(t, servingCall{path: "/simulate", body: `{"bench":"VECTORADD","policy":"bow-wr","iw":3}`})
			var sim simjob.SimulateResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &sim) != nil || sim.Result.Cycles <= 0 {
				t.Fatalf("simulate: status %d body %s", resp.StatusCode, raw)
			}

			checkStream(t, st)
			checkMetrics(t, st)

			resp, raw = st.do(t, servingCall{method: http.MethodGet, path: "/readyz"})
			if resp.StatusCode != http.StatusOK || !bytes.Contains(raw, []byte(`"ready"`)) {
				t.Errorf("readyz before drain: %d %s", resp.StatusCode, raw)
			}
			st.drain()
			resp, raw = st.do(t, servingCall{method: http.MethodGet, path: "/readyz"})
			if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(raw, []byte(`"draining"`)) {
				t.Errorf("readyz after drain: %d %s", resp.StatusCode, raw)
			}
		})
	}
}

// checkStream pins the NDJSON sweep answer: its content type, one event
// per unique point with a monotonic done count, and a final summary
// with the items stripped.
func checkStream(t *testing.T, st servingStack) {
	t.Helper()
	sw := simjob.SweepSpec{Benches: []string{"VECTORADD"}, Policies: []string{"baseline", "bow-wr"}, IWs: []int{2, 3}}
	unique, index, err := sw.ExpandHashed()
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(sw)
	resp, raw := st.do(t, servingCall{path: "/sweep?stream=1", body: string(body)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d body %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	var events []cluster.StreamEvent
	for dec.More() {
		var ev cluster.StreamEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream event %d: %v", len(events), err)
		}
		events = append(events, ev)
	}
	if len(events) != len(unique)+1 {
		t.Fatalf("stream has %d events, want %d items + summary", len(events), len(unique))
	}
	for i, ev := range events[:len(unique)] {
		if ev.Item == nil || ev.Summary != nil || ev.Done != i+1 || ev.Total != len(unique) {
			t.Errorf("event %d: done=%d total=%d item=%v summary=%v", i, ev.Done, ev.Total, ev.Item != nil, ev.Summary != nil)
		} else if ev.Item.Error != "" || ev.Item.Result == nil {
			t.Errorf("event %d: item failed: %q", i, ev.Item.Error)
		}
	}
	sum := events[len(unique)].Summary
	if sum == nil || sum.Jobs != len(index) || sum.Failed != 0 || sum.Items != nil {
		t.Errorf("stream summary %+v", sum)
	}
}

// checkMetrics pins /metrics content negotiation: JSON by default,
// Prometheus text with the stack's families when asked for text/plain.
func checkMetrics(t *testing.T, st servingStack) {
	t.Helper()
	resp, raw := st.do(t, servingCall{method: http.MethodGet, path: "/metrics"})
	var obj map[string]any
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" || json.Unmarshal(raw, &obj) != nil {
		t.Errorf("metrics JSON: %d %q %s", resp.StatusCode, resp.Header.Get("Content-Type"), raw)
	}
	resp, raw = st.do(t, servingCall{method: http.MethodGet, path: "/metrics", header: map[string]string{"Accept": "text/plain"}})
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("metrics text: %d %q", resp.StatusCode, ct)
	}
	for _, fam := range st.families {
		if !bytes.Contains(raw, []byte("# TYPE "+fam)) {
			t.Errorf("metrics text lacks %s* families:\n%s", fam, raw)
		}
	}
}

// TestServingContractWorkerFailure pins the status a coordinator answers
// when its worker fails a job: the request was fine and the cluster
// could not serve it, so both modes answer 502 and the client may
// retry. The durable coordinator used to answer 400 here.
func TestServingContractWorkerFailure(t *testing.T) {
	worker := startRealWorker(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/simulate" {
				http.Error(w, "injected failure", http.StatusInternalServerError)
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	for _, st := range startServingStacks(t, worker) {
		resp, raw := st.do(t, servingCall{path: "/simulate", body: `{"bench":"VECTORADD","policy":"bow-wr","iw":3}`})
		if resp.StatusCode != http.StatusBadGateway {
			t.Errorf("%s: worker 500 answered %d, want 502 (%s)", st.name, resp.StatusCode, raw)
		}
	}
}
