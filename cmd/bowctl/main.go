// Command bowctl is the cluster CLI: it scatter/gathers design-space
// sweeps through a bowd coordinator and renders cluster state.
//
// Usage:
//
//	bowctl [-coord http://localhost:8080] [-api-key KEY] status
//	bowctl [-coord URL] [-api-key KEY] sweep [-benches SAD,LIB] [-policies baseline,bow-wr]
//	       [-iws 2,3,4] [-capacities ...] [-sms ...] [-schedulers gto,lrr]
//	       [-maxcycles N] [-json] [-quiet] [-trace] [-traceid ID]
//	       (-fork, -warmup N, -batch and -batchsize N are accepted and ignored)
//	bowctl [-coord URL] [-api-key KEY] tenants
//	bowctl [-coord URL] trace -id ID
//
// sweep streams partial results as the cluster completes them (one
// line per unique design point, via the coordinator's NDJSON stream),
// then prints the gathered table. With -trace the sweep is tagged with
// a trace ID (generated unless -traceid pins one), propagated to the
// coordinator and every worker via the X-Bow-Trace-Id header, and the
// reconstructed coordinator→worker→engine span timeline is fetched
// back and rendered after the results. trace re-fetches the spans of
// an earlier traced run. status renders every worker's routing state —
// readiness, breaker (an open breaker shows the time until its
// half-open probe), in-flight, load, cache hit ratio, per-endpoint
// request counts — plus the cluster counters.
//
// Against a durable coordinator (bowd -coordinator -wal-dir), pass
// -api-key (or set BOW_API_KEY) to authenticate; tenants renders the
// per-tenant admission/quota/fair-share table.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"

	"bow/internal/cluster"
	"bow/internal/simjob"
	"bow/internal/stats"
	"bow/internal/trace"
)

// apiKey is the -api-key value (or $BOW_API_KEY); when set, every
// request carries it in the X-Bow-Api-Key header for the durable
// coordinator's tenant middleware.
var apiKey string

func main() {
	coord := flag.String("coord", "http://localhost:8080", "coordinator base URL")
	key := flag.String("api-key", os.Getenv("BOW_API_KEY"), "tenant API key for a durable coordinator (default $BOW_API_KEY)")
	flag.Usage = usage
	flag.Parse()
	apiKey = *key
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	base := *coord
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")

	var err error
	switch args[0] {
	case "status":
		err = runStatus(base)
	case "sweep":
		err = runSweep(base, args[1:])
	case "tenants":
		err = runTenants(base)
	case "trace":
		err = runTrace(base, args[1:])
	default:
		fmt.Fprintf(os.Stderr, "bowctl: unknown command %q\n", args[0])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bowctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  bowctl [-coord URL] [-api-key KEY] status
  bowctl [-coord URL] [-api-key KEY] sweep [-benches a,b] [-policies p,q] [-iws 2,3]
         [-capacities n,m] [-sms 1,2] [-schedulers gto,lrr]
         [-maxcycles N] [-json] [-quiet] [-trace] [-traceid ID]
         (-fork, -warmup N, -batch and -batchsize N are accepted and ignored)
  bowctl [-coord URL] [-api-key KEY] tenants
  bowctl [-coord URL] trace -id ID
`)
}

// httpGet issues a GET with the API key header attached when one is
// configured.
func httpGet(url string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if apiKey != "" {
		req.Header.Set(apiKeyHeader, apiKey)
	}
	return http.DefaultClient.Do(req)
}

// apiKeyHeader mirrors durable.APIKeyHeader without importing the
// whole durable package into the CLI.
const apiKeyHeader = "X-Bow-Api-Key"

func runStatus(base string) error {
	resp, err := httpGet(base + "/status")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coordinator answered %d", resp.StatusCode)
	}
	var st cluster.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}

	tbl := stats.NewTable("worker", "ready", "breaker", "inflight", "load",
		"done", "failed", "cache", "http-inflight", "simulate", "sweep")
	for _, w := range st.Workers {
		ready := "yes"
		switch {
		case w.Draining:
			ready = "draining"
		case !w.Ready:
			ready = "DOWN"
		}
		breaker := w.Breaker
		if w.Breaker == "open" {
			// An open breaker is still a row — show how long until its
			// half-open probe may route instead of hiding the worker.
			breaker = fmt.Sprintf("open(%.1fs→half-open)", float64(w.BreakerRetryMillis)/1000)
		}
		tbl.AddRowf(w.Addr, ready, breaker, w.Inflight, w.ReportedLoad,
			w.Metrics.Done, w.Metrics.Failed, stats.Pct(w.Metrics.CacheHitRatio),
			w.Metrics.HTTPInflight, w.Metrics.Requests["/simulate"],
			w.Metrics.Requests["/sweep"])
	}
	fmt.Print(tbl.String())
	c := st.Counters
	fmt.Printf("\ncluster: jobs=%d done=%d failed=%d localCacheHits=%d retries=%d\n",
		c.Jobs, c.Done, c.Failed, c.LocalCacheHits, c.Retries)
	fmt.Printf("hedging: fired=%d won=%d discarded=%d delay=%dus (p50=%dus p95=%dus)\n",
		c.Hedges, c.HedgeWins, c.HedgeDiscarded, st.HedgeDelayMicros,
		st.P50LatencyMicros, st.P95LatencyMicros)
	return nil
}

// tenantRow mirrors durable.TenantStatus's JSON shape (kept local for
// the same reason as apiKeyHeader).
type tenantRow struct {
	Name        string  `json:"name"`
	Weight      int     `json:"weight"`
	RatePerSec  float64 `json:"ratePerSec"`
	MaxInflight int     `json:"maxInflight"`
	Inflight    int     `json:"inflight"`
	Queued      int     `json:"queued"`
	Admitted    int64   `json:"admitted"`
	Served      int64   `json:"served"`
	Rejected    int64   `json:"rejected"`
}

func runTenants(base string) error {
	resp, err := httpGet(base + "/tenants")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusUnauthorized:
		return fmt.Errorf("coordinator answered 401: pass -api-key (or set BOW_API_KEY)")
	case http.StatusNotFound:
		return fmt.Errorf("coordinator has no /tenants endpoint (not running with -wal-dir?)")
	default:
		return fmt.Errorf("coordinator answered %d", resp.StatusCode)
	}
	var rows []tenantRow
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return err
	}
	tbl := stats.NewTable("tenant", "weight", "rate/s", "max-inflight",
		"inflight", "queued", "admitted", "served", "rejected")
	for _, t := range rows {
		rate := "∞"
		if t.RatePerSec > 0 {
			rate = fmt.Sprintf("%g", t.RatePerSec)
		}
		maxIn := "∞"
		if t.MaxInflight > 0 {
			maxIn = strconv.Itoa(t.MaxInflight)
		}
		tbl.AddRowf(t.Name, t.Weight, rate, maxIn,
			t.Inflight, t.Queued, t.Admitted, t.Served, t.Rejected)
	}
	fmt.Print(tbl.String())
	return nil
}

func runSweep(base string, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	benches := fs.String("benches", "", "comma-separated benchmark names (empty = all)")
	policies := fs.String("policies", "", "comma-separated policies (empty = bow-wr)")
	iws := fs.String("iws", "", "comma-separated instruction-window sizes")
	capacities := fs.String("capacities", "", "comma-separated BOC capacities")
	sms := fs.String("sms", "", "comma-separated SM counts")
	schedulers := fs.String("schedulers", "", "comma-separated schedulers (gto,lrr)")
	maxCycles := fs.Int64("maxcycles", 0, "per-job cycle bound (0 = default)")
	fs.Bool("fork", false, "ignored: accepted so existing scripts keep working; every point runs as its own job")
	fs.Int64("warmup", 0, "ignored, like -fork")
	fs.Bool("batch", false, "ignored, like -fork")
	fs.Int("batchsize", 0, "ignored, like -fork")
	jsonOut := fs.Bool("json", false, "print the aggregate SweepResult JSON instead of tables")
	quiet := fs.Bool("quiet", false, "suppress per-point progress lines")
	traced := fs.Bool("trace", false, "tag the sweep with a trace ID and render its spans afterwards")
	traceID := fs.String("traceid", "", "trace ID to tag the sweep with (implies -trace; empty = generated)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceID != "" {
		*traced = true
	}
	if *traced && *traceID == "" {
		*traceID = trace.NewID()
	}
	if *traced {
		fmt.Fprintf(os.Stderr, "trace id: %s\n", *traceID)
	}

	sw := simjob.SweepSpec{
		Benches:    splitCSV(*benches),
		Policies:   splitCSV(*policies),
		Schedulers: splitCSV(*schedulers),
		MaxCycles:  *maxCycles,
	}
	var err error
	if sw.IWs, err = splitInts(*iws); err != nil {
		return fmt.Errorf("-iws: %w", err)
	}
	if sw.Capacities, err = splitInts(*capacities); err != nil {
		return fmt.Errorf("-capacities: %w", err)
	}
	if sw.SMs, err = splitInts(*sms); err != nil {
		return fmt.Errorf("-sms: %w", err)
	}
	body, err := json.Marshal(sw)
	if err != nil {
		return err
	}

	if *jsonOut {
		resp, err := postSweep(base+"/sweep", body, *traceID)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("coordinator answered %d", resp.StatusCode)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		var res simjob.SweepResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			return err
		}
		if err := enc.Encode(res); err != nil {
			return err
		}
		if *traced {
			return showTrace(base, *traceID)
		}
		return nil
	}

	resp, err := postSweep(base+"/sweep?stream=1", body, *traceID)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coordinator answered %d", resp.StatusCode)
	}

	var items []simjob.SweepItem
	var summary *simjob.SweepResult
	failed := 0
	if strings.Contains(resp.Header.Get("Content-Type"), "application/x-ndjson") {
		// Coordinator: per-point NDJSON progress stream.
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var ev cluster.StreamEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				return fmt.Errorf("bad stream line: %w", err)
			}
			if ev.Summary != nil {
				summary = ev.Summary
				continue
			}
			if ev.Item == nil {
				continue
			}
			items = append(items, *ev.Item)
			if !*quiet {
				printProgress(ev)
			}
			if ev.Item.Error != "" {
				failed++
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
	} else {
		// Worker bowd: the stream param is ignored and the whole sweep
		// arrives as one document.
		var res simjob.SweepResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			return err
		}
		items = res.Items
		for _, it := range items {
			if it.Error != "" {
				failed++
			}
		}
		sum := res
		sum.Items = nil
		summary = &sum
	}

	sort.Slice(items, func(i, j int) bool {
		a, b := items[i].Spec, items[j].Spec
		if a.Bench != b.Bench {
			return a.Bench < b.Bench
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		if a.IW != b.IW {
			return a.IW < b.IW
		}
		return a.Capacity < b.Capacity
	})
	tbl := stats.NewTable("bench", "policy", "iw", "cap", "cycles", "ipc",
		"rd-bypass", "wr-bypass", "cached")
	for _, it := range items {
		if it.Error != "" {
			tbl.AddRowf(it.Spec.Bench, it.Spec.Policy, it.Spec.IW, it.Spec.Capacity,
				"ERROR", it.Error, "", "", "")
			continue
		}
		r := it.Result
		cached := it.Cached
		if cached == "" {
			cached = "fresh"
		}
		tbl.AddRowf(r.Bench, r.Policy, r.IW, r.Capacity, r.Cycles, r.IPC,
			stats.Pct(r.ReadBypassFrac), stats.Pct(r.WriteBypassFrac), cached)
	}
	fmt.Print(tbl.String())
	if summary != nil {
		fmt.Printf("\n%d jobs (%d unique), %d failed\n", summary.Jobs, len(items), summary.Failed)
	} else if failed > 0 {
		fmt.Printf("\n%d of %d points failed\n", failed, len(items))
	}
	if *traced {
		if err := showTrace(base, *traceID); err != nil {
			return err
		}
	}
	if failed > 0 || (summary != nil && summary.Failed > 0) {
		return fmt.Errorf("sweep finished with failures")
	}
	return nil
}

// postSweep posts the sweep body, tagging the request with the trace
// ID when one is set.
func postSweep(url string, body []byte, traceID string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(trace.HeaderTraceID, traceID)
	}
	if apiKey != "" {
		req.Header.Set(apiKeyHeader, apiKey)
	}
	return http.DefaultClient.Do(req)
}

// runTrace fetches and renders the spans of an earlier traced run.
func runTrace(base string, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	id := fs.String("id", "", "trace ID (as printed by sweep -trace)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("trace needs -id")
	}
	return showTrace(base, *id)
}

// showTrace fetches /spans?trace=id from the coordinator and renders
// the cross-process timeline.
func showTrace(base, id string) error {
	resp, err := httpGet(base + "/spans?trace=" + url.QueryEscape(id))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coordinator answered %d", resp.StatusCode)
	}
	var spans []trace.Span
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		return err
	}
	fmt.Printf("\ntrace %s: %d spans\n", id, len(spans))
	if len(spans) == 0 {
		return nil
	}
	renderSpans(spans)
	return nil
}

// renderSpans prints spans as a table, start times relative to the
// earliest span.
func renderSpans(spans []trace.Span) {
	t0 := spans[0].StartMicros
	for _, s := range spans {
		if s.StartMicros < t0 {
			t0 = s.StartMicros
		}
	}
	tbl := stats.NewTable("start", "dur", "hop", "stage", "worker", "job", "err")
	for _, s := range spans {
		job := s.Job
		if len(job) > 12 {
			job = job[:12]
		}
		tbl.AddRowf(fmt.Sprintf("+%.3fms", float64(s.StartMicros-t0)/1000),
			fmt.Sprintf("%.3fms", float64(s.DurMicros)/1000),
			s.Hop, s.Stage, s.Worker, job, s.Err)
	}
	fmt.Print(tbl.String())
}

func printProgress(ev cluster.StreamEvent) {
	it := ev.Item
	if it.Error != "" {
		fmt.Printf("[%d/%d] %s %s iw=%d FAILED: %s\n",
			ev.Done, ev.Total, it.Spec.Bench, it.Spec.Policy, it.Spec.IW, it.Error)
		return
	}
	src := it.Cached
	if src == "" {
		src = "fresh"
	}
	fmt.Printf("[%d/%d] %s %s iw=%d cap=%d cycles=%d ipc=%.2f (%s)\n",
		ev.Done, ev.Total, it.Spec.Bench, it.Spec.Policy, it.Spec.IW,
		it.Spec.Capacity, it.Result.Cycles, it.Result.IPC, src)
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitCSV(s) {
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("%q is not an integer", p)
		}
		out = append(out, n)
	}
	return out, nil
}
