package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"bow/internal/core"
	"bow/internal/simjob"
	"bow/internal/trace"
)

// The serving probe times the serving layers on fixed, cheap traffic
// that every workload's traced run repeats identically, so the numbers
// isolate the layer instead of the load.

// codecProbe times the request decode and response encode /simulate
// performs: a JobSpec strictly decoded from its JSON body, and an
// indented SimulateResponse encoding.
func codecProbe(runs []*pointRun) (decodeUS, encodeUS []float64, err error) {
	for _, r := range runs {
		body, err := json.Marshal(r.spec)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var spec simjob.JobSpec
		err = dec.Decode(&spec)
		decodeUS = append(decodeUS, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return nil, nil, err
		}
		var buf bytes.Buffer
		t0 = time.Now()
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(simjob.SimulateResponse{Result: r.sum})
		encodeUS = append(encodeUS, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return nil, nil, err
		}
	}
	return decodeUS, encodeUS, nil
}

// cacheProbe times the result cache's two tiers: a put (memory insert
// plus the disk write), a memory-tier get, and a disk-tier get through
// a second cache over the same directory.
func cacheProbe(dir string, runs []*pointRun) (putUS, memUS, diskUS []float64, err error) {
	c, err := simjob.NewCache(serveCacheSize, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	us := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }
	for _, r := range runs {
		out := &simjob.Outcome{Spec: r.spec, Hash: r.hash, Summary: r.sum}
		t0 := time.Now()
		err := c.Put(out)
		putUS = append(putUS, us(t0))
		if err != nil {
			return nil, nil, nil, err
		}
		t0 = time.Now()
		_, ok := c.Get(r.hash, false)
		memUS = append(memUS, us(t0))
		if !ok {
			return nil, nil, nil, fmt.Errorf("cache probe: %s missing from the memory tier", r.hash)
		}
	}
	cold, err := simjob.NewCache(serveCacheSize, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, r := range runs {
		t0 := time.Now()
		got, ok := cold.Get(r.hash, false)
		diskUS = append(diskUS, us(t0))
		if !ok || got.Cached != "disk" {
			return nil, nil, nil, fmt.Errorf("cache probe: %s not served from disk", r.hash)
		}
	}
	return putUS, memUS, diskUS, nil
}

// httpProbe sends repeats of one point to an in-process /simulate and
// returns, per memory-tier hit, the client latency minus the server's
// http span: the cost of the HTTP stack and the client around the
// handler.
func httpProbe(ctx context.Context, nproc, n int) ([]float64, error) {
	e, err := simjob.New(simjob.Options{Workers: nproc})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	ts := httptest.NewServer(simjob.NewServer(e))
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()

	body := []byte(`{"bench":"VECTORADD","policy":"baseline"}`)
	post := func(id string) (time.Duration, string, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/simulate", bytes.NewReader(body))
		if err != nil {
			return 0, "", err
		}
		req.Header.Set(trace.HeaderTraceID, id)
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return 0, "", err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		lat := time.Since(t0)
		if err != nil {
			return 0, "", err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, "", fmt.Errorf("http probe: %s", resp.Status)
		}
		var sr simjob.SimulateResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			return 0, "", err
		}
		return lat, sr.Cached, nil
	}
	if _, _, err := post("bowperf-probe-warm"); err != nil {
		return nil, err
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("bowperf-probe-%d", i)
		lat, cached, err := post(id)
		if err != nil {
			return nil, err
		}
		if cached != "memory" {
			return nil, fmt.Errorf("http probe: repeat answered from %q, want memory", cached)
		}
		var handlerUS int64 = -1
		for _, s := range e.Spans().ByTrace(id) {
			if s.Stage == trace.StageHTTP {
				handlerUS = s.DurMicros
			}
		}
		if handlerUS < 0 {
			return nil, fmt.Errorf("http probe: no http span for %s", id)
		}
		out = append(out, float64(lat.Nanoseconds())/1e3-float64(handlerUS))
	}
	return out, nil
}

// replayProbe measures core.Engine.Advance in isolation per policy:
// core.Replay over the dynamic instruction streams of every bench,
// captured with JobSpec.Trace under that policy's own kernel (so the
// streams carry its compiler hints). It returns ns per instruction.
func replayProbe(ctx context.Context, benches, policies []string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range policies {
		cfg, err := simjob.DefaultPolicyConfig(p)
		if err != nil {
			return nil, err
		}
		var ns, insts int64
		for _, b := range benches {
			run, err := simjob.Execute(ctx, simjob.JobSpec{Bench: b, Policy: p, Trace: true})
			if err != nil {
				return nil, err
			}
			keys := make([][2]int, 0, len(run.Full.Traces))
			for k := range run.Full.Traces {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
			})
			for _, k := range keys {
				stream := run.Full.Traces[k]
				t0 := time.Now()
				if _, err := core.Replay(stream, cfg); err != nil {
					return nil, fmt.Errorf("replay %s/%s: %w", b, p, err)
				}
				ns += time.Since(t0).Nanoseconds()
				insts += int64(len(stream))
			}
		}
		if insts == 0 {
			return nil, fmt.Errorf("replay %s: no instructions captured", p)
		}
		out[p] = float64(ns) / float64(insts)
	}
	return out, nil
}
