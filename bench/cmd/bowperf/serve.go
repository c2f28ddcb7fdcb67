package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"bow/internal/simjob"
	"bow/internal/trace"
)

// serve_mix load shape. At 60 req/s a hit does not queue behind cold
// jobs on nproc connections; at 100-200 req/s the hit tail is set by
// client-side queueing instead of the server.
const (
	serveRate      = 60 // requests per second, open loop
	servePrefill   = 100
	serveCacheSize = 32 // memory-tier entries
	serveRecent    = 16 // "recent" repeats come from this many most recent points
	serveTraceTag  = "bowperf-"
)

// serveKinds is one block of the request mix, shuffled per block: 30%
// first-seen, 50% recent repeats (memory tier), 20% older repeats
// (disk tier). Exact proportions per block keep the mix identical
// across seeds.
var serveKinds = []byte("cccrrrrroo")

type servePoint struct {
	body []byte
	hash string
}

// serveDriver drives an in-process bowd /simulate over loopback HTTP.
type serveDriver struct {
	env    runEnv
	points []servePoint // stratified first-seen order

	// Rebuilt by every setUp.
	dir    string
	eng    *simjob.Engine
	ts     *httptest.Server
	client *http.Client
	rng    *rand.Rand
	next   int   // next first-seen point
	lru    []int // requested points, most recent first
	kinds  []byte

	t tally
}

func newServe(env runEnv) *serveDriver {
	rng := newRand(env.seed)
	space := stratify(designSpace(), rng)
	d := &serveDriver{env: env, points: make([]servePoint, len(space))}
	for i, sp := range space {
		body, err := json.Marshal(sp)
		if err != nil {
			panic(err)
		}
		hash, err := sp.Hash()
		if err != nil {
			panic(err)
		}
		d.points[i] = servePoint{body: body, hash: hash}
	}
	return d
}

func (d *serveDriver) tally() *tally { return &d.t }

func (d *serveDriver) setUp(ctx context.Context) error {
	var err error
	if d.dir, err = os.MkdirTemp(d.env.tmp, "serve-cache-"); err != nil {
		return err
	}
	d.eng, err = simjob.New(simjob.Options{Workers: d.env.nproc, CacheSize: serveCacheSize, CacheDir: d.dir})
	if err != nil {
		return err
	}
	d.ts = httptest.NewServer(simjob.NewServer(d.eng))
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     d.env.nproc,
		MaxIdleConnsPerHost: d.env.nproc,
	}}
	d.rng = newRand(d.env.seed)
	d.next, d.lru, d.kinds = 0, nil, nil
	reqs := make([]serveReq, servePrefill)
	for k := range reqs {
		reqs[k] = serveReq{point: d.firstSeen()}
	}
	_, err = d.issue(ctx, reqs, false, false)
	return err
}

func (d *serveDriver) tearDown() {
	if d.ts != nil {
		d.ts.Close()
		d.client.CloseIdleConnections()
		d.eng.Close()
		os.RemoveAll(d.dir)
		d.ts = nil
	}
}

type serveReq struct {
	point int
	due   time.Time
	late  time.Duration
}

type serveResp struct {
	latMS  float64
	cached string
	cycles int64
	err    error
}

func (d *serveDriver) touch(p int) {
	for i, q := range d.lru {
		if q == p {
			copy(d.lru[1:i+1], d.lru[:i])
			d.lru[0] = p
			return
		}
	}
	d.lru = append([]int{p}, d.lru...)
}

func (d *serveDriver) firstSeen() int {
	p := d.next % len(d.points)
	d.next++
	d.touch(p)
	return p
}

// pick draws request k's point. Older repeats come from beyond the
// memory tier's reach, so they hit the disk tier.
func (d *serveDriver) pick(k int) int {
	if k%len(serveKinds) == 0 {
		d.kinds = append(d.kinds[:0], serveKinds...)
		d.rng.Shuffle(len(d.kinds), func(i, j int) { d.kinds[i], d.kinds[j] = d.kinds[j], d.kinds[i] })
	}
	var p int
	switch kind := d.kinds[k%len(serveKinds)]; {
	case kind == 'r':
		p = d.lru[d.rng.Intn(min(serveRecent, len(d.lru)))]
	case kind == 'o' && len(d.lru) > serveCacheSize:
		p = d.lru[serveCacheSize+d.rng.Intn(len(d.lru)-serveCacheSize)]
	default:
		return d.firstSeen()
	}
	d.touch(p)
	return p
}

func (d *serveDriver) window(ctx context.Context, w windowSpec) (*windowStats, error) {
	reqs := make([]serveReq, w.requests)
	clock := readClock()
	resps, err := d.issue(ctx, reqs, true, w.traced)
	if err != nil {
		return nil, err
	}
	_, cpu, _ := clock.since()
	ws := &windowStats{ops: len(reqs), requests: len(reqs)}
	for k, r := range resps {
		ws.latMS = append(ws.latMS, r.latMS)
		ws.lateMS = append(ws.lateMS, reqs[k].late.Seconds()*1e3)
		switch r.cached {
		case "":
			ws.coldMS = append(ws.coldMS, r.latMS)
			ws.cycles += r.cycles
		case "memory":
			ws.memHits++
			ws.hitMS = append(ws.hitMS, r.latMS)
		case "disk":
			ws.diskHits++
			ws.hitMS = append(ws.hitMS, r.latMS)
		}
	}
	// Every request's CPU counts against the cycles the cold ones
	// simulated, so a costlier hit path lowers the rate too.
	ws.rates = []float64{float64(ws.cycles) / cpu}
	if w.traced {
		var mine []trace.Span
		for _, s := range d.eng.Spans().ByTrace("") {
			if strings.HasPrefix(s.TraceID, serveTraceTag) {
				mine = append(mine, s)
			}
		}
		ws.queueUS, ws.engineUS = engineTime(mine)
	}
	return ws, nil
}

// issue sends reqs over nproc connections. Paced requests go out open
// loop at serveRate, their points drawn as each falls due and their
// latency timed from the due time; unpaced ones (the prefill) go out
// as fast as the connections allow, with points already set.
func (d *serveDriver) issue(ctx context.Context, reqs []serveReq, paced, traced bool) ([]serveResp, error) {
	resps := make([]serveResp, len(reqs))
	jobs := make(chan int, len(reqs)) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	for w := 0; w < d.env.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				resps[k] = d.do(ctx, k, reqs[k], traced)
			}
		}()
	}
	start := time.Now()
	interval := time.Second / serveRate
	for k := range reqs {
		if paced {
			due := start.Add(time.Duration(k) * interval)
			time.Sleep(time.Until(due))
			reqs[k] = serveReq{point: d.pick(k), due: due, late: time.Since(due)}
		} else {
			reqs[k].due = time.Now()
		}
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	for _, r := range resps {
		d.t.add(r.err)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return resps, nil
}

// do sends one request and checks the answer against the golden
// digest of the point asked for.
func (d *serveDriver) do(ctx context.Context, k int, r serveReq, traced bool) serveResp {
	pt := d.points[r.point]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.ts.URL+"/simulate", bytes.NewReader(pt.body))
	if err != nil {
		return serveResp{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(trace.HeaderTraceID, fmt.Sprintf("%s%d", serveTraceTag, k))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return serveResp{err: err}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := serveResp{latMS: time.Since(r.due).Seconds() * 1e3}
	if err != nil {
		out.err = err
		return out
	}
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("/simulate: %s: %s", resp.Status, bytes.TrimSpace(raw))
		return out
	}
	var sr simjob.SimulateResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		out.err = fmt.Errorf("/simulate: %w", err)
		return out
	}
	out.cached, out.cycles = sr.Cached, sr.Result.Cycles
	if sr.Result.SpecHash != pt.hash {
		out.err = fmt.Errorf("/simulate answered %s for %s", sr.Result.SpecHash, pt.hash)
		return out
	}
	out.err = d.env.gold.check(pt.hash, sr.Result)
	return out
}
