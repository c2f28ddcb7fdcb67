package durable

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"bow/internal/cluster"
	"bow/internal/simjob"
	"bow/internal/trace"
)

// ServiceOptions configures a durable Service.
type ServiceOptions struct {
	// WALDir holds the log segments (required).
	WALDir string
	// StoreDir holds the content-addressed results (default
	// WALDir/store).
	StoreDir string
	// WAL tunes the log itself.
	WAL WALOptions
	// Tenants seeds the tenant table (the -tenants-file contents). WAL
	// RecTenant records replay on top of these.
	Tenants []Tenant
	// Dispatchers is the number of concurrent dispatch loops draining
	// the fair queue (default 4).
	Dispatchers int
	// Dispatch runs one job to completion — cmd/bowd points this at the
	// cluster coordinator's Do. Required.
	Dispatch func(ctx context.Context, spec simjob.JobSpec) (simjob.JobResult, error)
	// OnWorker is called for each RecWorker replayed at recovery, so a
	// restarted or promoted coordinator re-dials its fleet.
	OnWorker func(addr string)
	// Spans receives replay/recover timing.
	Spans *trace.SpanLog
}

func (o ServiceOptions) withDefaults() ServiceOptions {
	if o.StoreDir == "" {
		o.StoreDir = filepath.Join(o.WALDir, "store")
	}
	if o.Dispatchers <= 0 {
		o.Dispatchers = 4
	}
	return o
}

// RecoveryStats reports what replay reconstructed.
type RecoveryStats struct {
	ReplayStats
	// JobsRecovered counts jobs that were queued or in-flight at the
	// crash and were re-enqueued.
	JobsRecovered int `json:"jobsRecovered"`
	// JobsResumed is the subset resuming from a logged checkpoint
	// instead of cycle zero.
	JobsResumed     int `json:"jobsResumed"`
	TenantsReplayed int `json:"tenantsReplayed"`
	WorkersReplayed int `json:"workersReplayed"`
}

// djob is one admitted job's durable lifecycle.
type djob struct {
	hash    string
	tenant  string
	spec    simjob.JobSpec
	traceID string
	// assigned: handed to a dispatcher (an in-flight WAL state).
	assigned bool
	// checkpoint/ckptCycle: last logged resume point, if the job was
	// interrupted by a worker drain.
	checkpoint []byte
	ckptCycle  int64
	// done closes when the job completes; result/err are valid after.
	done   chan struct{}
	result simjob.JobResult
	err    error
}

// Service is the durable tier glued together: every admitted job is
// WAL-logged before it is visible, scheduled between tenants by
// deficit round-robin, dispatched through the cluster, and its result
// persisted content-addressed — so a crash at any instant loses no
// admitted work and a restart (or promoted standby) picks up where the
// log ends.
type Service struct {
	opts    ServiceOptions
	wal     *WAL
	store   *simjob.Store
	tenants *TenantTable
	queue   *FairQueue

	mu   sync.Mutex
	jobs map[string]*djob // admitted, not yet complete

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// counters for metrics.
	submitted, joined                 int64
	storePuts, storeHits, storeMisses int64
	dispatched, completed             int64
	failed                            int64
	recovered, resumed                int64
}

// NewService opens (replaying if non-empty) the WAL, rebuilds queue
// and in-flight state, and starts the dispatch loops. Interrupted jobs
// are re-enqueued immediately — their original callers are gone, but
// completing them populates the result store, which is what makes a
// resubmitted sweep after failover cheap.
func NewService(opts ServiceOptions) (*Service, RecoveryStats, error) {
	opts = opts.withDefaults()
	if opts.WALDir == "" {
		return nil, RecoveryStats{}, fmt.Errorf("durable: WALDir required")
	}
	if opts.Dispatch == nil {
		return nil, RecoveryStats{}, fmt.Errorf("durable: Dispatch required")
	}
	store, err := simjob.OpenStore(opts.StoreDir)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	s := &Service{
		opts:    opts,
		store:   store,
		tenants: NewTenantTable(nil),
		queue:   NewFairQueue(),
		jobs:    make(map[string]*djob),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())

	var stats RecoveryStats
	replayStart := time.Now()
	type recovering struct {
		*djob
		hasResult bool
	}
	pending := make(map[string]*recovering)
	var pendingOrder []string // WAL enqueue order; re-enqueue follows it
	replayedTenants := make(map[string]Tenant)
	var workerOrder []string
	workerSeen := make(map[string]bool)
	wal, rstats, err := OpenWAL(opts.WALDir, opts.WAL, func(r Record) {
		v, err := decodePayload(r)
		if err != nil {
			// An unknown or malformed-but-CRC-valid record is from a newer
			// writer; skipping it is the forward-compatible move.
			return
		}
		switch p := v.(type) {
		case *EnqueuePayload:
			var spec simjob.JobSpec
			if json.Unmarshal(p.Spec, &spec) != nil {
				return
			}
			if _, ok := pending[p.Hash]; !ok {
				pendingOrder = append(pendingOrder, p.Hash)
			}
			pending[p.Hash] = &recovering{djob: &djob{
				hash: p.Hash, tenant: p.Tenant, spec: spec,
				traceID: p.TraceID, done: make(chan struct{}),
			}}
		case *AssignPayload:
			if j, ok := pending[p.Hash]; ok {
				j.assigned = true
			}
		case *CheckpointPayload:
			if j, ok := pending[p.Hash]; ok {
				j.checkpoint = p.Checkpoint
				j.ckptCycle = p.Cycle
			}
		case *ResultPayload:
			if j, ok := pending[p.Hash]; ok {
				j.hasResult = true
			}
		case *CompletePayload:
			delete(pending, p.Hash)
		case *TenantPayload:
			s.tenants.Upsert(p.Tenant)
			replayedTenants[p.Tenant.Name] = p.Tenant.withDefaults()
			stats.TenantsReplayed++
		case *WorkerPayload:
			if !workerSeen[p.Addr] {
				workerSeen[p.Addr] = true
				workerOrder = append(workerOrder, p.Addr)
			}
		}
	})
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	s.wal = wal
	stats.ReplayStats = rstats
	opts.Spans.Record(trace.Span{
		Hop: trace.HopCoordinator, Stage: trace.StageReplay,
		StartMicros: replayStart.UnixMicro(),
		DurMicros:   time.Since(replayStart).Microseconds(),
	})

	// Apply the -tenants-file definitions on top of the replayed ones
	// (a freshly edited file wins over history) and WAL-log any that are
	// new or changed, so standbys tailing this log learn the tenant set
	// without ever seeing the file.
	for _, t := range opts.Tenants {
		t = t.withDefaults()
		if prev, ok := replayedTenants[t.Name]; !ok || prev != t {
			if _, err := wal.appendJSON(RecTenant, TenantPayload{Tenant: t}); err != nil {
				_ = wal.Close()
				return nil, stats, err
			}
		}
		s.tenants.Upsert(t)
	}

	stats.WorkersReplayed = len(workerOrder)
	if opts.OnWorker != nil {
		for _, addr := range workerOrder {
			opts.OnWorker(addr)
		}
	}

	// Re-enqueue every incomplete job in original WAL enqueue order —
	// DRR ordering between tenants dominates, but within a tenant the
	// recovered queue matches what the old primary held.
	for _, hash := range pendingOrder {
		j, ok := pending[hash]
		if !ok {
			continue // completed (or a stale duplicate entry)
		}
		delete(pending, hash)
		recoverStart := time.Now()
		if j.hasResult {
			if sum, ok := s.store.Get(j.hash); ok {
				// The result survived but the complete record didn't:
				// finish the job administratively instead of re-running it.
				s.storeHits++
				s.finishRecovered(j.djob, sum)
				continue
			}
		}
		if len(j.checkpoint) > 0 {
			j.spec.FromCheckpoint = j.checkpoint
			stats.JobsResumed++
			s.resumed++
		}
		stats.JobsRecovered++
		s.recovered++
		// Recovered jobs were admitted pre-crash; re-charge their quota
		// best-effort (never reject work the old primary accepted).
		_ = s.tenants.AcquireJobs(j.tenant, 1)
		s.mu.Lock()
		s.jobs[j.hash] = j.djob
		s.mu.Unlock()
		s.queue.Push(j.tenant, s.tenants.Weight(j.tenant), j.djob)
		opts.Spans.Record(trace.Span{
			TraceID: j.traceID, Hop: trace.HopCoordinator, Stage: trace.StageRecover,
			Job: j.hash, StartMicros: recoverStart.UnixMicro(),
			DurMicros: time.Since(recoverStart).Microseconds(),
		})
	}

	s.tenants.queuedFn = s.queue.LenTenant
	for i := 0; i < opts.Dispatchers; i++ {
		s.wg.Add(1)
		go s.dispatchLoop()
	}
	return s, stats, nil
}

// finishRecovered completes a job from its surviving stored result
// (no dispatch). WAL gets the missing complete record so the next
// replay is clean.
func (s *Service) finishRecovered(j *djob, sum simjob.JobResult) {
	_, _ = s.wal.appendJSON(RecComplete, CompletePayload{Hash: j.hash})
	j.result = sum
	close(j.done)
	s.mu.Lock()
	s.completed++
	s.mu.Unlock()
}

// Tenants exposes the table (for middleware, bowctl, metrics).
func (s *Service) Tenants() *TenantTable { return s.tenants }

// WAL exposes the log (for the /wal tail endpoints and metrics).
func (s *Service) WAL() *WAL { return s.wal }

// Store exposes the content-addressed result store.
func (s *Service) Store() *simjob.Store { return s.store }

// UpsertTenant logs and applies a tenant definition, so standbys and
// restarts see it.
func (s *Service) UpsertTenant(t Tenant) error {
	t = t.withDefaults()
	if _, err := s.wal.appendJSON(RecTenant, TenantPayload{Tenant: t}); err != nil {
		return err
	}
	s.tenants.Upsert(t)
	return nil
}

// NoteWorker logs a worker join so a promoted standby can re-dial the
// fleet.
func (s *Service) NoteWorker(addr string) {
	_, _ = s.wal.appendJSON(RecWorker, WorkerPayload{Addr: addr})
}

// LogCheckpoint records a migrated job's resume point (wired to
// cluster.Options.OnCheckpoint). If the coordinator dies before the
// re-dispatch completes, recovery resumes from this cycle instead of
// zero.
func (s *Service) LogCheckpoint(hash string, cycle int64, ckpt []byte) {
	s.mu.Lock()
	if j, ok := s.jobs[hash]; ok {
		j.checkpoint = ckpt
		j.ckptCycle = cycle
	}
	s.mu.Unlock()
	_, _ = s.wal.appendJSON(RecCheckpoint, CheckpointPayload{Hash: hash, Cycle: cycle, Checkpoint: ckpt})
}

// Submit admits one job for tenant and waits for its result. The
// caller's ctx bounds only the wait: once admitted, the job runs to
// completion (and its result persists) even if the caller leaves —
// that is the durability contract.
func (s *Service) Submit(ctx context.Context, tenant string, spec simjob.JobSpec) (simjob.JobResult, error) {
	results, err := s.SubmitMany(ctx, tenant, []simjob.JobSpec{spec})
	if err != nil {
		return simjob.JobResult{}, err
	}
	return results[0], nil
}

// admitSlot is one admitted spec: either a result that was ready at
// admission (store hit) or the job to wait on.
type admitSlot struct {
	j      *djob
	result simjob.JobResult
	ready  bool
	// cached is SweepItem.Cached: "store" for a store-served slot.
	cached string
}

// wait blocks for the slot's result, bounded by ctx (the job itself
// keeps running past a canceled wait).
func (sl *admitSlot) wait(ctx context.Context) (simjob.JobResult, error) {
	if sl.ready {
		return sl.result, nil
	}
	select {
	case <-sl.j.done:
		if sl.j.err != nil {
			return simjob.JobResult{}, fmt.Errorf("durable: job %s: %w", sl.j.hash, sl.j.err)
		}
		return sl.j.result, nil
	case <-ctx.Done():
		return simjob.JobResult{}, ctx.Err()
	}
}

// SubmitMany admits a batch (a sweep's unique specs) atomically
// against the tenant's quota — all admitted or all rejected — then
// waits for every result. Specs already satisfied by the store or
// joining an in-flight job do not charge quota.
func (s *Service) SubmitMany(ctx context.Context, tenant string, specs []simjob.JobSpec) ([]simjob.JobResult, error) {
	slots, err := s.admit(ctx, tenant, specs)
	if err != nil {
		return nil, err
	}
	out := make([]simjob.JobResult, len(specs))
	for i := range slots {
		sum, err := slots[i].wait(ctx)
		if err != nil {
			return nil, err
		}
		out[i] = sum
	}
	return out, nil
}

// admit resolves each spec against the store, the in-flight set, and
// the batch itself, charges quota for the genuinely new jobs (all or
// nothing), logs their enqueues, and schedules them.
//
// New jobs are reserved in s.jobs under the phase-1 lock hold, so a
// concurrent identical submit joins the reservation instead of
// dispatching twice. A reservation is not dispatchable yet — it only
// reaches the queue once its enqueue record is durable; if quota or
// the log rejects the batch, unreserve fails any joiners.
func (s *Service) admit(ctx context.Context, tenant string, specs []simjob.JobSpec) ([]admitSlot, error) {
	slots := make([]admitSlot, len(specs))
	var newJobs []*djob

	s.mu.Lock()
	if s.ctx.Err() != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("durable: service closed")
	}
	for i, spec := range specs {
		spec, err := spec.Normalize()
		var hash string
		if err == nil {
			hash, err = spec.Hash()
		}
		if err != nil {
			// Nothing outside this lock hold has seen the reservations yet.
			for _, j := range newJobs {
				delete(s.jobs, j.hash)
			}
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %w", cluster.ErrBadSpec, err)
		}
		if j, ok := s.jobs[hash]; ok {
			// In-flight job, or a duplicate spec earlier in this batch.
			slots[i].j = j
			s.joined++
			continue
		}
		if sum, ok := s.store.Get(hash); ok {
			slots[i].result, slots[i].ready, slots[i].cached = sum, true, "store"
			s.storeHits++
			continue
		}
		s.storeMisses++
		j := &djob{
			hash: hash, tenant: tenant, spec: spec,
			traceID: trace.IDFromContext(ctx), done: make(chan struct{}),
		}
		s.jobs[hash] = j
		slots[i].j = j
		newJobs = append(newJobs, j)
	}
	s.mu.Unlock()

	if len(newJobs) > 0 {
		if err := s.tenants.AcquireJobs(tenant, len(newJobs)); err != nil {
			s.unreserve(newJobs, err)
			return nil, err
		}
		// Log before dispatching: a job only becomes runnable when its
		// enqueue record is durable.
		for _, j := range newJobs {
			rawSpec, err := json.Marshal(j.spec)
			if err == nil {
				_, err = s.wal.appendJSON(RecEnqueue, EnqueuePayload{
					Hash: j.hash, Tenant: tenant, Spec: rawSpec, TraceID: j.traceID,
				})
			}
			if err != nil {
				s.tenants.ReleaseJobs(tenant, len(newJobs))
				s.unreserve(newJobs, err)
				return nil, err
			}
		}
		weight := s.tenants.Weight(tenant)
		s.mu.Lock()
		s.submitted += int64(len(newJobs))
		s.mu.Unlock()
		for _, j := range newJobs {
			s.queue.Push(tenant, weight, j)
		}
	}
	return slots, nil
}

// unreserve removes reservations after a failed admission and resolves
// anything that joined them in the meantime with err.
func (s *Service) unreserve(newJobs []*djob, err error) {
	s.mu.Lock()
	for _, j := range newJobs {
		delete(s.jobs, j.hash)
	}
	s.mu.Unlock()
	for _, j := range newJobs {
		j.err = err
		close(j.done)
	}
}

// SubmitSweep expands a sweep, admits its unique points as one batch,
// and waits for them all, invoking onItem (when non-nil) as each
// unique point completes — the hook the streaming /sweep handler uses.
// Results are reported in expansion order, as the cluster
// coordinator's Sweep reports them.
func (s *Service) SubmitSweep(ctx context.Context, tenant string, sw simjob.SweepSpec, onItem func(done, total int, item simjob.SweepItem)) (*simjob.SweepResult, error) {
	unique, index, err := sw.ExpandHashed()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", cluster.ErrBadSpec, err)
	}
	specs := make([]simjob.JobSpec, len(unique))
	for i, hs := range unique {
		specs[i] = hs.Spec
	}
	slots, err := s.admit(ctx, tenant, specs)
	if err != nil {
		return nil, err
	}
	res := simjob.GatherSweep(unique, index, func(u int) (simjob.JobResult, string, error) {
		sum, err := slots[u].wait(ctx)
		return sum, slots[u].cached, err
	}, onItem)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// dispatchLoop drains the fair queue: log the assign, run the job
// through the cluster, persist + log the result, complete.
func (s *Service) dispatchLoop() {
	defer s.wg.Done()
	for {
		item, _, ok := s.queue.Pop()
		if !ok {
			return
		}
		j := item.(*djob)
		if s.ctx.Err() != nil {
			// Shutting down: leave the job in-flight in the WAL; recovery
			// re-enqueues it.
			continue
		}
		s.runJob(j)
	}
}

// runJob executes one job to its terminal WAL state.
func (s *Service) runJob(j *djob) {
	if _, err := s.wal.appendJSON(RecAssign, AssignPayload{Hash: j.hash}); err != nil {
		// WAL failure (disk gone, log closed): the job stays queued in
		// memory only; abort without a terminal record.
		return
	}
	s.mu.Lock()
	s.dispatched++
	if len(j.checkpoint) > 0 && len(j.spec.FromCheckpoint) == 0 {
		// A checkpoint logged while the job waited in queue (migration
		// during a previous attempt).
		j.spec.FromCheckpoint = j.checkpoint
	}
	s.mu.Unlock()

	ctx := trace.ContextWithID(s.ctx, j.traceID)
	sum, err := s.opts.Dispatch(ctx, j.spec)
	if err != nil {
		if s.ctx.Err() != nil {
			// Interrupted by shutdown, not failed: no terminal record, so
			// recovery re-routes it.
			return
		}
		_, _ = s.wal.appendJSON(RecComplete, CompletePayload{Hash: j.hash, Error: err.Error()})
		s.finish(j, simjob.JobResult{}, err)
		return
	}
	// The store refuses a result that answers some other spec (or a
	// hash that is not one), so a misbehaving worker can neither write
	// outside the store nor poison another job's entry.
	contentHash, perr := s.store.Put(j.hash, sum)
	if perr == nil {
		s.mu.Lock()
		s.storePuts++
		s.mu.Unlock()
		_, _ = s.wal.appendJSON(RecResult, ResultPayload{Hash: j.hash, ContentHash: contentHash})
	}
	_, _ = s.wal.appendJSON(RecComplete, CompletePayload{Hash: j.hash})
	s.finish(j, sum, nil)
}

// finish resolves a job's waiters and releases its quota.
func (s *Service) finish(j *djob, sum simjob.JobResult, err error) {
	s.mu.Lock()
	delete(s.jobs, j.hash)
	if err != nil {
		s.failed++
	} else {
		s.completed++
	}
	s.mu.Unlock()
	j.result, j.err = sum, err
	close(j.done)
	s.tenants.ReleaseJobs(j.tenant, 1)
}

// Close drains gracefully: stop admitting, let queued work recover on
// the next boot, flush and close the WAL.
func (s *Service) Close() error {
	s.cancel()
	s.queue.Close()
	s.wg.Wait()
	return s.wal.Close()
}

// Abort is the kill -9 stand-in for tests: cancel everything and
// release the WAL file handles without flushing in-memory state. Every
// record already appended is durable (Append returns post-fsync), so
// the on-disk log is exactly what a hard kill would leave.
func (s *Service) Abort() {
	s.cancel()
	s.queue.Close()
	s.wg.Wait()
	_ = s.wal.Close()
}

// ServiceMetrics snapshots the durable tier for /metrics.
type ServiceMetrics struct {
	WAL WALStats `json:"wal"`

	StorePuts    int64 `json:"storePuts"`
	StoreHits    int64 `json:"storeHits"`
	StoreMisses  int64 `json:"storeMisses"`
	StoreEntries int   `json:"storeEntries"`

	Submitted  int64 `json:"submitted"`
	Joined     int64 `json:"joined"`
	Dispatched int64 `json:"dispatched"`
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed"`
	Recovered  int64 `json:"recovered"`
	Resumed    int64 `json:"resumed"`
	Queued     int   `json:"queued"`

	TenantsAdmitted    int64          `json:"tenantsAdmitted"`
	TenantsRejected401 int64          `json:"tenantsRejected401"`
	TenantsRejected429 int64          `json:"tenantsRejected429"`
	Tenants            []TenantStatus `json:"tenants,omitempty"`
}

// Metrics snapshots the service.
func (s *Service) Metrics() ServiceMetrics {
	admitted, r401, r429 := s.tenants.Counters()
	s.mu.Lock()
	m := ServiceMetrics{
		StorePuts: s.storePuts, StoreHits: s.storeHits, StoreMisses: s.storeMisses,
		Submitted: s.submitted, Joined: s.joined,
		Dispatched: s.dispatched, Completed: s.completed, Failed: s.failed,
		Recovered: s.recovered, Resumed: s.resumed,
		TenantsAdmitted: admitted, TenantsRejected401: r401, TenantsRejected429: r429,
	}
	s.mu.Unlock()
	m.WAL = s.wal.Stats()
	m.StoreEntries = s.store.Len()
	m.Queued = s.queue.Len()
	m.Tenants = s.tenants.Snapshot()
	return m
}
