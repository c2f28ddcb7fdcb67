package durable

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bow/internal/simjob"
)

// StandbyOptions configures a warm standby.
type StandbyOptions struct {
	// Primary is the primary coordinator's base URL (required).
	Primary string
	// WALDir is the standby's local log directory (required). The tailed
	// records are appended here verbatim, so promotion is just opening a
	// Service over it.
	WALDir string
	// WAL tunes the local log.
	WAL WALOptions
	// PollInterval paces the tail loop (default 200ms).
	PollInterval time.Duration
	// FailAfter is how many consecutive failed polls declare the primary
	// dead (default 5). With the default interval that is a one-second
	// heartbeat lapse.
	FailAfter int
	// HTTPClient overrides the tailing client.
	HTTPClient *http.Client
	// OnDown is called once, on its own goroutine, when the primary is
	// declared dead — so it may call sb.Promote directly (Promote waits
	// for the tail loop to exit, which would deadlock if OnDown ran on
	// it). It receives the standby rather than relying on the caller
	// capturing the not-yet-assigned NewStandby result. Promotion
	// itself stays explicit (Promote) so the caller controls the
	// Service wiring.
	OnDown func(sb *Standby)
}

func (o StandbyOptions) withDefaults() StandbyOptions {
	if o.PollInterval <= 0 {
		o.PollInterval = 200 * time.Millisecond
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 5
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{Timeout: 10 * time.Second}
	}
	return o
}

// Standby tails a primary coordinator's WAL into a local log and
// watches its health. While tailing, ServeHTTP answers /readyz with
// 503 until the local log has caught up to the primary's durable end;
// when the primary's heartbeat lapses, the standby declares it down
// and the caller promotes (Promote) — which replays the tailed log
// into a live Service exactly as a restart of the primary would.
type Standby struct {
	opts StandbyOptions
	wal  *WAL

	caughtUp atomic.Bool
	primary  atomic.Bool // primary currently considered healthy

	mu       sync.Mutex
	nextLSN  int64
	fails    int
	promoted bool
	lastErr  error

	down     chan struct{}
	downOnce sync.Once

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// counters
	tailed, polls, pollFails int64
}

// NewStandby opens the local WAL (recovering any previously tailed
// prefix) and starts the tail loop.
func NewStandby(opts StandbyOptions) (*Standby, error) {
	opts = opts.withDefaults()
	if opts.Primary == "" || opts.WALDir == "" {
		return nil, fmt.Errorf("durable: standby needs Primary and WALDir")
	}
	sb := &Standby{opts: opts, down: make(chan struct{})}
	wal, _, err := OpenWAL(opts.WALDir, opts.WAL, nil)
	if err != nil {
		return nil, err
	}
	sb.wal = wal
	sb.nextLSN = wal.End() + 1
	sb.primary.Store(true)
	sb.ctx, sb.cancel = context.WithCancel(context.Background())
	sb.wg.Add(1)
	go sb.tailLoop()
	return sb, nil
}

// tailLoop polls the primary, appends new records, and tracks health.
func (sb *Standby) tailLoop() {
	defer sb.wg.Done()
	t := time.NewTicker(sb.opts.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-sb.ctx.Done():
			return
		case <-t.C:
		}
		if err := sb.pollOnce(); err != nil {
			sb.mu.Lock()
			sb.fails++
			sb.pollFails++
			sb.lastErr = err
			fails := sb.fails
			sb.mu.Unlock()
			if fails >= sb.opts.FailAfter && sb.primary.Load() {
				sb.primary.Store(false)
				if sb.opts.OnDown != nil {
					go sb.opts.OnDown(sb)
				}
				sb.downOnce.Do(func() { close(sb.down) })
			}
			continue
		}
		sb.mu.Lock()
		sb.fails = 0
		sb.lastErr = nil
		sb.mu.Unlock()
		sb.primary.Store(true)
	}
}

// pollOnce fetches one batch of records past our local end and appends
// them. Catch-up is reached when the primary's durable end is ours.
func (sb *Standby) pollOnce() error {
	sb.mu.Lock()
	from := sb.nextLSN
	sb.polls++
	sb.mu.Unlock()

	url := fmt.Sprintf("%s/wal?from=%d&max=1024", sb.opts.Primary, from)
	req, err := http.NewRequestWithContext(sb.ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := sb.opts.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("durable: primary /wal: %s", resp.Status)
	}
	var batch WALBatch
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		return err
	}
	appended := int64(0)
	for _, r := range batch.Records {
		if r.LSN != from {
			return fmt.Errorf("durable: tail gap: got lsn %d, want %d", r.LSN, from)
		}
		lsn, err := sb.wal.Append(r.Type, r.Payload)
		if err != nil {
			return err
		}
		if lsn != r.LSN {
			return fmt.Errorf("durable: tail divergence: local lsn %d != primary %d", lsn, r.LSN)
		}
		from++
		appended++
	}
	sb.mu.Lock()
	sb.nextLSN = from
	sb.tailed += appended
	sb.mu.Unlock()
	sb.caughtUp.Store(from > batch.End)
	return nil
}

// CaughtUp reports whether the local log has reached the primary's
// durable end (as of the last successful poll).
func (sb *Standby) CaughtUp() bool { return sb.caughtUp.Load() }

// PrimaryHealthy reports the current health verdict on the primary.
func (sb *Standby) PrimaryHealthy() bool { return sb.primary.Load() }

// Down is closed when the primary is declared dead.
func (sb *Standby) Down() <-chan struct{} { return sb.down }

// EndLSN is the local durable end.
func (sb *Standby) EndLSN() int64 { return sb.wal.End() }

// Promote stops tailing, closes the tail handle, and opens a full
// Service over the tailed log: replay rebuilds tenants, workers, and
// every incomplete job, which then dispatch through the new
// coordinator — the failover path. opts.WALDir/WAL are overridden to
// the standby's local log.
func (sb *Standby) Promote(opts ServiceOptions) (*Service, RecoveryStats, error) {
	sb.mu.Lock()
	if sb.promoted {
		sb.mu.Unlock()
		return nil, RecoveryStats{}, fmt.Errorf("durable: already promoted")
	}
	sb.promoted = true
	sb.mu.Unlock()
	sb.cancel()
	sb.wg.Wait()
	if err := sb.wal.Close(); err != nil {
		return nil, RecoveryStats{}, err
	}
	opts.WALDir = sb.opts.WALDir
	opts.WAL = sb.opts.WAL
	return NewService(opts)
}

// Close stops the tail loop without promoting.
func (sb *Standby) Close() error {
	sb.mu.Lock()
	promoted := sb.promoted
	sb.mu.Unlock()
	sb.cancel()
	sb.wg.Wait()
	if promoted {
		return nil // the promoted Service owns the WAL now
	}
	return sb.wal.Close()
}

// ServeHTTP is the standby's holding-pattern endpoint set: readiness
// reflects catch-up, and a tiny status block aids debugging. cmd/bowd
// swaps in the full durable Server after promotion.
func (sb *Standby) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/readyz":
		if !sb.CaughtUp() {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]any{
				"status": "catching-up", "end": sb.EndLSN(),
			})
			return
		}
		simjob.WriteJSON(w, map[string]string{"status": "standby"})
	case "/healthz":
		simjob.WriteJSON(w, map[string]string{"status": "ok"})
	case "/status", "/metrics":
		sb.mu.Lock()
		st := map[string]any{
			"role":           "standby",
			"primary":        sb.opts.Primary,
			"primaryHealthy": sb.PrimaryHealthy(),
			"caughtUp":       sb.CaughtUp(),
			"endLSN":         sb.wal.End(),
			"tailedRecords":  sb.tailed,
			"polls":          sb.polls,
			"pollFailures":   sb.pollFails,
		}
		if sb.lastErr != nil {
			st["lastError"] = sb.lastErr.Error()
		}
		sb.mu.Unlock()
		simjob.WriteJSON(w, st)
	default:
		simjob.HTTPError(w, http.StatusServiceUnavailable,
			fmt.Errorf("durable: standby for %s (not promoted)", sb.opts.Primary))
	}
}
