// Command bowd serves the GPU simulator as a daemon. In its default
// (worker) mode, simulation jobs and design-space sweeps are submitted
// over HTTP, executed on a concurrent worker pool, and deduplicated
// through the two-tier result cache (memory LRU + optional on-disk
// JSON store), so repeated points — across requests and across
// restarts — are simulated once. In -coordinator mode it runs no
// simulations itself: it shards the same API across a fleet of worker
// bowds with cache-affinity routing, hedging, retries, and circuit
// breaking (internal/cluster). A coordinator given -wal-dir becomes
// the durable multi-tenant tier (internal/durable): every admitted job
// is write-ahead logged, results persist content-addressed, tenants
// authenticate with API keys under rate/quota/fair-share control, and
// a second bowd started with -standby-of tails the WAL and takes over
// when the primary dies.
//
// Usage:
//
//	bowd                                   # worker on :8080, GOMAXPROCS pool
//	bowd -addr :9090 -workers 8 -cachedir /var/cache/bow
//	bowd -addr :8081 -peers=localhost:8082,localhost:8083   # peer cache fill
//	bowd -coordinator -workers=host1:8080,host2:8080
//	bowd -coordinator -wal-dir /var/lib/bow -tenants-file tenants.json
//	bowd -standby-of http://primary:8080 -wal-dir /var/lib/bow-standby
//	bowd -addr :8081 -register http://coord:8080   # worker that joins a coordinator
//
// Worker endpoints:
//
//	POST /simulate   one JobSpec            -> {cached, result}
//	POST /sweep      SweepSpec cross-product -> SweepResult
//	GET  /result/{hash}  cached result envelope (peer cache fill)
//	GET  /healthz    liveness
//	GET  /readyz     readiness — 503 once SIGTERM starts the drain,
//	                 so a coordinator stops routing here before the
//	                 listener closes
//	GET  /metrics    jobs queued/running/done/failed, cache hit ratio,
//	                 p50/p99 job latency, per-endpoint request counts,
//	                 HTTP in-flight gauge — JSON by default, Prometheus
//	                 text format when the Accept header asks for
//	                 text/plain (bow_* metric families)
//	GET  /spans      recorded spans; ?trace=ID filters to one trace
//	GET  /debug/pprof/...  live profiling (-pprof=false disables)
//
// Coordinator endpoints (same /simulate and /sweep schema, plus):
//
//	POST /sweep?stream=1  NDJSON stream of per-point results
//	POST /join            {"addr":"host:8080"} dynamic worker join
//	POST /leave           {"addr":"host:8080"} drain-time deregister
//	GET  /status          per-worker routing state + cluster counters
//	GET  /spans           coordinator spans merged with every worker's,
//	                      ?trace=ID reconstructs one request's
//	                      coordinator -> worker -> engine timeline
//
// Durable-mode coordinators additionally serve GET /tenants, GET /wal
// (the standby tail feed), and require the X-Bow-Api-Key header on
// job-submitting endpoints; see internal/durable.
//
// Both modes propagate the X-Bow-Trace-Id request header into every
// hop they touch, so a single ID (bowctl sweep -trace) stitches the
// whole cluster path together.
//
// Example session:
//
//	bowd -addr :8081 -cachedir /tmp/bow1 &
//	bowd -addr :8082 -cachedir /tmp/bow2 &
//	bowd -coordinator -workers=localhost:8081,localhost:8082 &
//	curl -s localhost:8080/simulate -d '{"bench":"SAD","policy":"bow-wr","iw":3}'
//	curl -s localhost:8080/status
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"bow/internal/cluster"
	"bow/internal/durable"
	"bow/internal/simjob"
)

// switchableHandler lets the standby swap in the full durable server
// at promotion time without restarting the listener.
type switchableHandler struct {
	h atomic.Value // http.Handler
}

func (s *switchableHandler) set(h http.Handler) { s.h.Store(&h) }
func (s *switchableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load().(*http.Handler)).ServeHTTP(w, r)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	coordinator := flag.Bool("coordinator", false, "run as cluster coordinator instead of simulation worker")
	workers := flag.String("workers", "", "worker mode: pool size (default GOMAXPROCS); coordinator mode: comma-separated worker addresses")
	retries := flag.Int("retries", 0, "worker mode: extra attempts for a failed job")
	timeout := flag.Duration("timeout", 2*time.Minute, "worker mode: per-job simulation timeout (0 = none)")
	cacheDir := flag.String("cachedir", "", "worker mode: on-disk result cache directory (empty = memory only)")
	cacheSize := flag.Int("cachesize", 4096, "in-memory result cache entries")
	peers := flag.String("peers", "", "worker mode: comma-separated sibling worker URLs for peer-to-peer cache fill")
	inflight := flag.Int("inflight", 0, "coordinator mode: max in-flight jobs per worker (0 = default 4)")
	register := flag.String("register", "", "worker mode: coordinator URL to join on startup (POST /join)")
	advertise := flag.String("advertise", "", "address announced to the coordinator when registering (default 127.0.0.1<addr>)")
	drainGrace := flag.Duration("draingrace", 3*time.Second, "pause between flipping /readyz to 503 and closing the listener on SIGTERM")
	walDir := flag.String("wal-dir", "", "coordinator mode: write-ahead log directory — enables the durable multi-tenant tier")
	tenantsFile := flag.String("tenants-file", "", "durable mode: JSON tenant definitions (name, apiKey, weight, ratePerSec, burst, maxInflight)")
	standbyOf := flag.String("standby-of", "", "run as warm standby: primary coordinator URL whose WAL to tail (requires -wal-dir)")
	pprofOn := flag.Bool("pprof", true, "expose /debug/pprof/ profiling endpoints")
	flag.Parse()

	var handler http.Handler
	var drain func(context.Context, *http.Server)

	var fileTenants []durable.Tenant
	if *tenantsFile != "" {
		var err error
		fileTenants, err = durable.LoadTenantsFile(*tenantsFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bowd:", err)
			os.Exit(1)
		}
	}

	coordOpts := cluster.Options{MaxInflightPerWorker: *inflight, CacheSize: *cacheSize}
	switch {
	case *standbyOf != "":
		if *walDir == "" {
			fmt.Fprintln(os.Stderr, "bowd: -standby-of requires -wal-dir")
			os.Exit(1)
		}
		sw := &switchableHandler{}
		sb, err := durable.NewStandby(durable.StandbyOptions{
			Primary: *standbyOf,
			WALDir:  *walDir,
			OnDown: func(sb *durable.Standby) {
				fmt.Println("bowd: primary heartbeat lapsed — promoting")
				srv, _, stats, err := durableStack(coordOpts, nil, fileTenants, sb.Promote)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bowd: promote:", err)
					return
				}
				sw.set(srv)
				fmt.Printf("bowd: promoted — replayed %d records, recovered %d jobs (%d resumed from checkpoints), %d workers\n",
					stats.Records, stats.JobsRecovered, stats.JobsResumed, stats.WorkersReplayed)
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bowd:", err)
			os.Exit(1)
		}
		sw.set(sb)
		handler = sw
		drain = func(ctx context.Context, hs *http.Server) {
			_ = hs.Shutdown(ctx)
			_ = sb.Close()
		}
		fmt.Printf("bowd: warm standby for %s on %s (wal %s)\n", *standbyOf, *addr, *walDir)

	case *coordinator && *walDir != "":
		addrs := splitList(*workers)
		srv, closeStack, stats, err := durableStack(coordOpts, addrs, fileTenants,
			func(o durable.ServiceOptions) (*durable.Service, durable.RecoveryStats, error) {
				o.WALDir = *walDir
				return durable.NewService(o)
			})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bowd:", err)
			os.Exit(1)
		}
		handler = srv
		drain = func(ctx context.Context, hs *http.Server) {
			srv.StartDraining()
			time.Sleep(*drainGrace)
			_ = hs.Shutdown(ctx)
			closeStack()
		}
		if stats.Records > 0 {
			fmt.Printf("bowd: replayed %d WAL records — recovered %d jobs (%d resumed), %d tenants, %d workers\n",
				stats.Records, stats.JobsRecovered, stats.JobsResumed, stats.TenantsReplayed, stats.WorkersReplayed)
		}
		fmt.Printf("bowd: durable coordinator on %s (wal %s, %d workers, %d tenants)\n",
			*addr, *walDir, len(addrs), len(fileTenants))

	case *coordinator:
		addrs := splitList(*workers)
		coord, err := cluster.New(coordOpts, addrs...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bowd:", err)
			os.Exit(1)
		}
		srv := cluster.NewServer(coord)
		handler = srv
		drain = func(ctx context.Context, hs *http.Server) {
			srv.StartDraining()
			time.Sleep(*drainGrace)
			_ = hs.Shutdown(ctx)
			coord.Close()
		}
		fmt.Printf("bowd: coordinating %d workers on %s\n", len(addrs), *addr)

	default:
		pool := runtime.GOMAXPROCS(0)
		if *workers != "" {
			n, err := strconv.Atoi(*workers)
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "bowd: -workers=%q is not a pool size (worker mode takes an integer)\n", *workers)
				os.Exit(1)
			}
			pool = n
		}
		peerList := splitList(*peers)
		engine, err := simjob.New(simjob.Options{
			Workers:   pool,
			Retries:   *retries,
			Timeout:   *timeout,
			CacheSize: *cacheSize,
			CacheDir:  *cacheDir,
			Peers:     peerList,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bowd:", err)
			os.Exit(1)
		}
		srv := simjob.NewServer(engine)
		handler = srv
		drain = func(ctx context.Context, hs *http.Server) {
			// Deregister from the coordinator FIRST — before checkpointing
			// anything. Relying on the heartbeat to notice the /readyz 503
			// races it: the coordinator could route a job here in the
			// window between SIGTERM and its next probe, and that job
			// would immediately bounce back as a checkpoint. An explicit
			// POST /leave closes the window.
			if *register != "" {
				if err := leaveCoordinator(*register, *advertise, *addr); err != nil {
					fmt.Fprintln(os.Stderr, "bowd: deregister:", err)
				}
			}
			// Readiness goes dark next so anything not using the registry
			// reroutes too, and the engine drain interrupts in-flight
			// simulations at their next cycle boundary — their /simulate
			// responses carry resumable checkpoints that the coordinator
			// migrates to another worker. The grace period lets a
			// heartbeat observe the 503 before in-flight requests are
			// waited out.
			srv.StartDraining()
			engine.Drain()
			time.Sleep(*drainGrace)
			_ = hs.Shutdown(ctx)
			engine.Close()
		}
		fmt.Printf("bowd: serving on %s (%d workers, cachedir=%q, %d peers)\n", *addr, pool, *cacheDir, len(peerList))
		if *register != "" {
			if err := joinCoordinator(*register, *advertise, *addr); err != nil {
				fmt.Fprintln(os.Stderr, "bowd: register:", err)
			}
		}
	}

	if *pprofOn {
		// Live profiling of the daemon: `go tool pprof
		// http://host:port/debug/pprof/profile` while a sweep runs.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "bowd:", err)
			os.Exit(1)
		}
	case sig := <-sigc:
		fmt.Printf("bowd: %v — draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drain(ctx, hs)
	}
}

// durableStack builds the durable coordinator: a cluster coordinator
// over addrs, the durable service open opens on top of it
// (durable.NewService, or a standby's Promote), and the HTTP server
// in front of both; closeStack shuts the service and coordinator down.
// Jobs dispatch through the coordinator, migrated jobs log their
// checkpoints, workers replayed from the log rejoin the fleet, and
// addrs are logged as /join would log them, so a standby re-dials
// them after promotion.
func durableStack(opts cluster.Options, addrs []string, tenants []durable.Tenant,
	open func(durable.ServiceOptions) (*durable.Service, durable.RecoveryStats, error),
) (srv *durable.Server, closeStack func(), stats durable.RecoveryStats, err error) {
	// The checkpoint hook needs the service, which needs the
	// coordinator's Do: late-bind through an atomic pointer.
	var svcSlot atomic.Pointer[durable.Service]
	opts.OnCheckpoint = func(hash string, cycle int64, ckpt []byte) {
		if svc := svcSlot.Load(); svc != nil {
			svc.LogCheckpoint(hash, cycle, ckpt)
		}
	}
	coord, err := cluster.New(opts, addrs...)
	if err != nil {
		return nil, nil, stats, err
	}
	svc, stats, err := open(durable.ServiceOptions{
		Tenants: tenants,
		Dispatch: func(ctx context.Context, spec simjob.JobSpec) (simjob.JobResult, error) {
			res, _, err := coord.Do(ctx, spec)
			return res, err
		},
		OnWorker: func(a string) { coord.Join(a) },
	})
	if err != nil {
		coord.Close()
		return nil, nil, stats, err
	}
	svcSlot.Store(svc)
	for _, a := range addrs {
		svc.NoteWorker(a)
	}
	closeStack = func() {
		_ = svc.Close()
		coord.Close()
	}
	return durable.NewServer(svc, coord), closeStack, stats, nil
}

// splitList parses a comma-separated -workers or -peers list, dropping
// blanks.
func splitList(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// joinCoordinator announces this worker to a coordinator's /join
// endpoint. The advertised address defaults to 127.0.0.1 plus the
// listen port — fine for single-host clusters; multi-host setups pass
// -advertise explicitly.
func joinCoordinator(coord, advertise, listen string) error {
	if err := postMembership(coord, "/join", advertise, listen); err != nil {
		return err
	}
	fmt.Printf("bowd: registered %s with %s\n", advertiseAddr(advertise, listen), coord)
	return nil
}

// leaveCoordinator removes this worker from the coordinator's registry
// — the first step of the SIGTERM drain, so no new job races the
// checkpointing window.
func leaveCoordinator(coord, advertise, listen string) error {
	return postMembership(coord, "/leave", advertise, listen)
}

func advertiseAddr(advertise, listen string) string {
	if advertise != "" {
		return advertise
	}
	if strings.HasPrefix(listen, ":") {
		return "127.0.0.1" + listen
	}
	return listen
}

func postMembership(coord, path, advertise, listen string) error {
	if !strings.Contains(coord, "://") {
		coord = "http://" + coord
	}
	raw, err := json.Marshal(cluster.JoinRequest{Addr: advertiseAddr(advertise, listen)})
	if err != nil {
		return err
	}
	resp, err := http.Post(strings.TrimRight(coord, "/")+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coordinator answered %d", resp.StatusCode)
	}
	return nil
}
