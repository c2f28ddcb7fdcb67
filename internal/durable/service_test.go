package durable

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bow/internal/simjob"
)

// fakeDispatch is a stub cluster: it fabricates a deterministic result
// for any spec, counting calls, with optional blocking and failure.
type fakeDispatch struct {
	mu      sync.Mutex
	calls   int
	byHash  map[string]int
	gate    chan struct{} // non-nil: block until closed
	started chan string   // non-nil: receives each hash on entry
	fail    error
	// sawCheckpoint records the FromCheckpoint bytes per hash.
	sawCheckpoint map[string][]byte
}

func newFakeDispatch() *fakeDispatch {
	return &fakeDispatch{byHash: map[string]int{}, sawCheckpoint: map[string][]byte{}}
}

func (f *fakeDispatch) fn(ctx context.Context, spec simjob.JobSpec) (simjob.JobResult, error) {
	hash, err := spec.Hash()
	if err != nil {
		return simjob.JobResult{}, err
	}
	f.mu.Lock()
	f.calls++
	f.byHash[hash]++
	f.sawCheckpoint[hash] = spec.FromCheckpoint
	gate, started, fail := f.gate, f.started, f.fail
	f.mu.Unlock()
	if started != nil {
		started <- hash
	}
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return simjob.JobResult{}, ctx.Err()
		}
	}
	if fail != nil {
		return simjob.JobResult{}, fail
	}
	return simjob.JobResult{
		SpecHash: hash, Bench: spec.Bench, Policy: spec.Policy,
		IW: spec.IW, Capacity: spec.Capacity, SMs: spec.SMs,
		Scheduler: spec.Scheduler, Cycles: 12345, Executed: 100, IPC: 1.5,
	}, nil
}

func (f *fakeDispatch) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func testSpec(iw int) simjob.JobSpec {
	return simjob.JobSpec{Bench: "VECTORADD", Policy: "bow-wr", IW: iw}
}

func newTestService(t *testing.T, dir string, d *fakeDispatch, tenants ...Tenant) (*Service, RecoveryStats) {
	t.Helper()
	if len(tenants) == 0 {
		tenants = []Tenant{{Name: "t1", APIKey: "k1"}}
	}
	svc, stats, err := NewService(ServiceOptions{
		WALDir: dir, Tenants: tenants, Dispatch: d.fn, Dispatchers: 2,
	})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	return svc, stats
}

func TestServiceSubmitStoreHitAndJoin(t *testing.T) {
	dir := t.TempDir()
	d := newFakeDispatch()
	svc, _ := newTestService(t, dir, d)
	defer svc.Close()

	ctx := context.Background()
	spec := testSpec(3)
	sum, err := svc.Submit(ctx, "t1", spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if sum.Cycles != 12345 {
		t.Fatalf("result = %+v", sum)
	}
	// Resubmitting hits the content-addressed store: no new dispatch.
	sum2, err := svc.Submit(ctx, "t1", spec)
	if err != nil {
		t.Fatal(err)
	}
	if d.callCount() != 1 {
		t.Fatalf("dispatch ran %d times, want 1", d.callCount())
	}
	a, _ := sum.CanonicalJSON()
	b, _ := sum2.CanonicalJSON()
	if string(a) != string(b) {
		t.Fatalf("store hit differs:\n%s\n%s", a, b)
	}
	m := svc.Metrics()
	if m.StoreHits == 0 || m.Completed != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestServiceInflightJoin(t *testing.T) {
	dir := t.TempDir()
	d := newFakeDispatch()
	d.gate = make(chan struct{})
	d.started = make(chan string, 8)
	svc, _ := newTestService(t, dir, d)
	defer svc.Close()

	spec := testSpec(4)
	var wg sync.WaitGroup
	results := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, results[i] = svc.Submit(context.Background(), "t1", spec)
		}(i)
	}
	<-d.started // one dispatch in flight
	close(d.gate)
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if d.callCount() != 1 {
		t.Fatalf("dispatch ran %d times for 3 identical submits", d.callCount())
	}
}

func TestServiceQuotaAtAdmission(t *testing.T) {
	dir := t.TempDir()
	d := newFakeDispatch()
	svc, _ := newTestService(t, dir, d,
		Tenant{Name: "small", APIKey: "k", MaxInflight: 2})
	defer svc.Close()

	specs := []simjob.JobSpec{testSpec(2), testSpec(3), testSpec(4)}
	_, err := svc.SubmitMany(context.Background(), "small", specs)
	if !errors.Is(err, ErrOverQuota) {
		t.Fatalf("3 jobs against quota 2: %v", err)
	}
	// All-or-nothing: nothing reached the dispatcher or the WAL queue.
	if d.callCount() != 0 {
		t.Fatal("over-quota batch reached dispatch")
	}
	// A fitting batch passes, and completion returns the quota.
	if _, err := svc.SubmitMany(context.Background(), "small", specs[:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitMany(context.Background(), "small", specs[2:]); err != nil {
		t.Fatal(err)
	}
}

func TestServiceFailedJobCompletes(t *testing.T) {
	dir := t.TempDir()
	d := newFakeDispatch()
	d.fail = fmt.Errorf("worker exploded")
	svc, _ := newTestService(t, dir, d)
	_, err := svc.Submit(context.Background(), "t1", testSpec(5))
	if err == nil {
		t.Fatal("expected error")
	}
	svc.Close()

	// The failure is terminal in the WAL: a restart must NOT re-run it.
	d2 := newFakeDispatch()
	svc2, stats := newTestService(t, dir, d2)
	defer svc2.Close()
	if stats.JobsRecovered != 0 {
		t.Fatalf("failed job recovered: %+v", stats)
	}
}

// TestServiceCrashRecovery is the core durability property: jobs
// admitted (WAL-logged) but killed mid-flight are re-enqueued on the
// next boot and complete, populating the store — so a resubmission
// after the "crash" is pure store hits, byte-identical to an
// uninterrupted run.
func TestServiceCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	d := newFakeDispatch()
	d.gate = make(chan struct{}) // never closed: jobs hang mid-dispatch
	d.started = make(chan string, 8)
	svc, _ := newTestService(t, dir, d)

	specs := []simjob.JobSpec{testSpec(2), testSpec(3), testSpec(4)}
	go func() {
		// Callers abandoned by the crash.
		_, _ = svc.SubmitMany(context.Background(), "t1", specs)
	}()
	// Wait until both dispatchers hold a job (2 assigned, 1 queued).
	<-d.started
	<-d.started
	svc.Abort() // kill -9

	// Reboot with a working dispatcher.
	d2 := newFakeDispatch()
	svc2, stats := newTestService(t, dir, d2)
	defer svc2.Close()
	if stats.JobsRecovered != 3 {
		t.Fatalf("recovered %d jobs, want 3 (stats %+v)", stats.JobsRecovered, stats)
	}
	// Recovered jobs complete in the background; the store fills.
	deadline := time.After(5 * time.Second)
	for svc2.Store().Len() < 3 {
		select {
		case <-deadline:
			t.Fatalf("store has %d results, want 3", svc2.Store().Len())
		case <-time.After(10 * time.Millisecond):
		}
	}
	// Resubmitting the sweep is now free and returns complete results.
	before := d2.callCount()
	results, err := svc2.SubmitMany(context.Background(), "t1", specs)
	if err != nil {
		t.Fatal(err)
	}
	if d2.callCount() != before {
		t.Fatal("resubmission recomputed instead of hitting the store")
	}
	for i, sum := range results {
		wantHash, _ := specs[i].Hash()
		if sum.SpecHash != wantHash || sum.Cycles != 12345 {
			t.Fatalf("result %d = %+v", i, sum)
		}
	}
}

func TestServiceCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	d := newFakeDispatch()
	d.gate = make(chan struct{})
	d.started = make(chan string, 8)
	svc, _ := newTestService(t, dir, d)

	spec := testSpec(6)
	hash, _ := spec.Hash()
	go func() { _, _ = svc.Submit(context.Background(), "t1", spec) }()
	<-d.started
	// A worker drain migrated the job: the coordinator hook logs the
	// checkpoint, then the primary dies.
	ckpt := []byte("snapshot-bytes-cycle-9000")
	svc.LogCheckpoint(hash, 9000, ckpt)
	svc.Abort()

	d2 := newFakeDispatch()
	svc2, stats := newTestService(t, dir, d2)
	defer svc2.Close()
	if stats.JobsRecovered != 1 || stats.JobsResumed != 1 {
		t.Fatalf("stats = %+v, want 1 recovered / 1 resumed", stats)
	}
	deadline := time.After(5 * time.Second)
	for svc2.Store().Len() < 1 {
		select {
		case <-deadline:
			t.Fatal("recovered job never completed")
		case <-time.After(10 * time.Millisecond):
		}
	}
	d2.mu.Lock()
	saw := d2.sawCheckpoint[hash]
	d2.mu.Unlock()
	if string(saw) != string(ckpt) {
		t.Fatalf("re-dispatch saw checkpoint %q, want %q", saw, ckpt)
	}
}

func TestServiceRecoverySkipsJobsWithStoredResult(t *testing.T) {
	// A job whose result was persisted but whose complete record was
	// lost (crash between the two appends) must finish administratively,
	// not re-run.
	dir := t.TempDir()
	d := newFakeDispatch()
	svc, _ := newTestService(t, dir, d)
	spec := testSpec(7)
	sum, err := svc.Submit(context.Background(), "t1", spec)
	if err != nil {
		t.Fatal(err)
	}
	svc.Abort()

	// Forge the crash: append a fresh enqueue+assign+result with no
	// complete, pointing at the already-stored result.
	w, _, err := OpenWAL(dir, WALOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rawSpec, _ := json.Marshal(spec)
	hash, _ := spec.Hash()
	if _, err := w.appendJSON(RecEnqueue, EnqueuePayload{Hash: hash, Tenant: "t1", Spec: rawSpec}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.appendJSON(RecAssign, AssignPayload{Hash: hash}); err != nil {
		t.Fatal(err)
	}
	canonical, _ := sum.CanonicalJSON()
	if _, err := w.appendJSON(RecResult, ResultPayload{Hash: hash, ContentHash: contentHashHex(canonical)}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	d2 := newFakeDispatch()
	svc2, stats := newTestService(t, dir, d2)
	defer svc2.Close()
	if stats.JobsRecovered != 0 {
		t.Fatalf("stats = %+v: stored-result job should not re-run", stats)
	}
	if d2.callCount() != 0 {
		t.Fatal("dispatch ran for an already-stored result")
	}
}

func TestServiceConcurrentTenantsFairShare(t *testing.T) {
	// End-to-end fairness: two tenants flood the service; the heavy
	// tenant's jobs are served ~10x as often. A single slow dispatcher
	// serializes service order so the DRR sequence is observable.
	dir := t.TempDir()
	var servedMu sync.Mutex
	served := map[string]int{}
	var inFlight atomic.Int32
	d := newFakeDispatch()
	svc, _, err := func() (*Service, RecoveryStats, error) {
		return NewService(ServiceOptions{
			WALDir: dir,
			Tenants: []Tenant{
				{Name: "heavy", APIKey: "kh", Weight: 10},
				{Name: "light", APIKey: "kl", Weight: 1},
			},
			Dispatchers: 1,
			Dispatch: func(ctx context.Context, spec simjob.JobSpec) (simjob.JobResult, error) {
				if n := inFlight.Add(1); n > 1 {
					t.Errorf("dispatcher concurrency %d with Dispatchers=1", n)
				}
				defer inFlight.Add(-1)
				return d.fn(ctx, spec)
			},
		})
	}()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const each = 60
	var wg sync.WaitGroup
	submit := func(tenant string, iwBase int) {
		defer wg.Done()
		for i := 0; i < each; i++ {
			spec := simjob.JobSpec{Bench: "VECTORADD", Policy: "bow-wr", IW: iwBase + i, Capacity: 4 * (iwBase + i)}
			if _, err := svc.Submit(context.Background(), tenant, spec); err != nil {
				t.Errorf("%s submit %d: %v", tenant, i, err)
				return
			}
			servedMu.Lock()
			served[tenant]++
			servedMu.Unlock()
		}
	}
	wg.Add(2)
	go submit("heavy", 100)
	go submit("light", 1000)
	wg.Wait()
	// Both drained fully; fairness held during the run is covered by the
	// FairQueue property test — here assert end-to-end completion and
	// that per-tenant accounting matches.
	m := svc.Metrics()
	var heavyServed, lightServed int64
	for _, row := range m.Tenants {
		switch row.Name {
		case "heavy":
			heavyServed = row.Served
		case "light":
			lightServed = row.Served
		}
	}
	if heavyServed != each || lightServed != each {
		t.Fatalf("served heavy=%d light=%d, want %d each", heavyServed, lightServed, each)
	}
}

// contentHashHex mirrors the envelope hash without exporting more
// surface from the package under test.
func contentHashHex(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestServiceStoreRejectsForeignSpecHash: a worker's result is stored
// under the job's own hash, and one that claims another spec hash is
// refused — a SpecHash off the wire can neither write outside the
// result store nor be logged as a stored result. The job still
// completes with the dispatched result, as any store failure does.
func TestServiceStoreRejectsForeignSpecHash(t *testing.T) {
	dir := t.TempDir()
	svc, _, err := NewService(ServiceOptions{
		WALDir: dir, Tenants: []Tenant{{Name: "t1", APIKey: "k1"}}, Dispatchers: 1,
		Dispatch: func(_ context.Context, spec simjob.JobSpec) (simjob.JobResult, error) {
			return simjob.JobResult{SpecHash: "../escaped", Bench: spec.Bench, Cycles: 1}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(context.Background(), "t1", testSpec(3)); err != nil {
		t.Fatal(err)
	}
	if m := svc.Metrics(); m.StorePuts != 0 || m.StoreEntries != 0 || m.Completed != 1 {
		t.Errorf("metrics = %+v, want the job completed with nothing stored", m)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "escaped.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a worker-supplied hash wrote outside the store (stat err %v)", err)
	}
	w, _, err := OpenWAL(dir, WALOptions{}, func(r Record) {
		if r.Type == RecResult {
			t.Error("WAL logged a result the store refused")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
}
