package simjob

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func newTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// TestDeterminismAndCacheSoundness is the invariant the content-
// addressed cache rests on: the same JobSpec yields byte-identical
// canonical JobResult JSON whether simulated cold on the calling
// goroutine, fresh in the pool, replayed from the memory tier, or
// re-simulated after a disk-tier round trip.
func TestDeterminismAndCacheSoundness(t *testing.T) {
	spec := JobSpec{Bench: "VECTORADD", Policy: "bow-wr"}

	cold, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.Summary.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}

	again, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := again.Summary.CanonicalJSON(); !bytes.Equal(want, got) {
		t.Errorf("sequential re-run diverged:\n%s\n%s", want, got)
	}

	dir := t.TempDir()
	e := newTestEngine(t, Options{Workers: 2, CacheDir: dir})
	pooled, err := e.DoFull(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if pooled.Cached != "" || pooled.Full == nil {
		t.Fatalf("first pool run should simulate: cached=%q full=%v", pooled.Cached, pooled.Full != nil)
	}
	if got, _ := pooled.Summary.CanonicalJSON(); !bytes.Equal(want, got) {
		t.Errorf("in-pool run diverged:\n%s\n%s", want, got)
	}

	hit, err := e.Do(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Cached != "memory" {
		t.Errorf("repeat spec not served from memory: %q", hit.Cached)
	}
	if got, _ := hit.Summary.CanonicalJSON(); !bytes.Equal(want, got) {
		t.Errorf("memory hit diverged:\n%s\n%s", want, got)
	}

	// A fresh engine over the same cache dir serves the summary from
	// disk without simulating.
	e2 := newTestEngine(t, Options{Workers: 1, CacheDir: dir})
	disk, err := e2.Do(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if disk.Cached != "disk" {
		t.Errorf("restart did not hit the disk tier: %q", disk.Cached)
	}
	if got, _ := disk.Summary.CanonicalJSON(); !bytes.Equal(want, got) {
		t.Errorf("disk hit diverged:\n%s\n%s", want, got)
	}
	if m := e2.Metrics(); m.Done != 0 {
		t.Errorf("disk hit still simulated: %+v", m)
	}

	// A full-result demand on the same engine re-simulates (disk holds
	// only the summary) and still reproduces the bytes.
	full, err := e2.DoFull(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if full.Full == nil {
		t.Fatal("DoFull returned no full result")
	}
	if got, _ := full.Summary.CanonicalJSON(); !bytes.Equal(want, got) {
		t.Errorf("post-disk re-simulation diverged:\n%s\n%s", want, got)
	}
}

// TestParallelIdenticalReports runs the same kernel concurrently many
// times over distinct specs-with-equal-meaning and asserts bit-identical
// reports — the regression test for the shared-state audit (run under
// -race by make test).
func TestParallelIdenticalReports(t *testing.T) {
	spec := JobSpec{Bench: "LIB", Policy: "bow-wb", IW: 3}
	const n = 4
	outs := make([]*Outcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = Execute(context.Background(), spec)
		}(i)
	}
	wg.Wait()
	var want []byte
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		got, err := outs[i].Summary.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(want, got) {
			t.Errorf("parallel run %d diverged:\n%s\n%s", i, want, got)
		}
	}
}

func TestSingleFlightDeduplication(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 4})
	spec := JobSpec{Bench: "SRAD", Policy: "bow-wb"}
	const n = 8
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tickets[i] = e.SubmitFull(context.Background(), spec)
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics()
	if m.Done != 1 {
		t.Errorf("expected 1 simulation for %d identical submissions, got %d", n, m.Done)
	}
}

func TestPanicIsolationAndRetry(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, Retries: 2})
	var calls int
	var mu sync.Mutex
	e.execute = func(ctx context.Context, spec JobSpec) (*Outcome, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		switch {
		case spec.Bench == "LPS":
			panic("injected failure")
		case n < 3:
			return nil, errors.New("transient")
		}
		return Execute(ctx, spec)
	}

	// A panicking job reports an error and leaves the pool alive.
	if _, err := e.Do(context.Background(), JobSpec{Bench: "LPS", Policy: "baseline"}); err == nil {
		t.Fatal("panicking job returned no error")
	}
	mu.Lock()
	calls = 0
	mu.Unlock()

	// A flaky job succeeds within the retry budget.
	out, err := e.DoFull(context.Background(), JobSpec{Bench: "VECTORADD", Policy: "baseline"})
	if err != nil {
		t.Fatalf("retryable job failed: %v", err)
	}
	if out.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", out.Attempts)
	}
	m := e.Metrics()
	if m.Failed != 1 || m.Done != 1 {
		t.Errorf("metrics after panic+retry: %+v", m)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, Retries: 1})
	var calls int
	e.execute = func(context.Context, JobSpec) (*Outcome, error) {
		calls++
		return nil, fmt.Errorf("attempt %d", calls)
	}
	_, err := e.Do(context.Background(), JobSpec{Bench: "VECTORADD", Policy: "baseline"})
	if err == nil || calls != 2 {
		t.Fatalf("err=%v calls=%d, want failure after 2 attempts", err, calls)
	}
}

func TestCancellation(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Do(ctx, JobSpec{Bench: "SAD", Policy: "bow-wr"}); err == nil {
		t.Error("canceled submission succeeded")
	}

	// An engine-imposed timeout far below any simulation's runtime
	// aborts the run loop cooperatively.
	et := newTestEngine(t, Options{Workers: 1, Timeout: time.Microsecond})
	if _, err := et.Do(context.Background(), JobSpec{Bench: "SAD", Policy: "bow-wr"}); err == nil {
		t.Error("timed-out job succeeded")
	}
	if m := et.Metrics(); m.Failed != 1 {
		t.Errorf("timeout not counted as failure: %+v", m)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	put := func(h string) {
		if err := c.Put(&Outcome{Hash: h, Summary: JobResult{SpecHash: h}}); err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	put("b")
	if _, ok := c.Get("a", false); !ok { // refresh a
		t.Fatal("a missing")
	}
	put("c") // evicts b
	if _, ok := c.Get("b", false); ok {
		t.Error("b survived past capacity")
	}
	if _, ok := c.Get("a", false); !ok {
		t.Error("recently used a evicted")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestSubmitAfterClose(t *testing.T) {
	e, err := New(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if _, err := e.Do(context.Background(), JobSpec{Bench: "VECTORADD", Policy: "baseline"}); err == nil {
		t.Error("submit after Close succeeded")
	}
}

// TestSingleFlightJoiner checks that a single-flight job belongs to all
// of its waiters, not to whoever submitted it first: (a) a joiner with
// a live context gets the real result after the first submitter gives
// up, (b) a job whose every submitter gives up is canceled, so an
// abandoned hedge stops simulating, and (c) a later submitter of the
// abandoned spec starts a fresh run instead of inheriting the
// cancellation. Each part uses its own window size, so its own spec
// and gate.
func TestSingleFlightJoiner(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 2})
	started := make(chan struct{}, 4)
	canceled := make(chan struct{}, 4)
	gates := map[int]chan struct{}{3: make(chan struct{}), 4: make(chan struct{}), 5: make(chan struct{})}
	e.execute = func(ctx context.Context, spec JobSpec) (*Outcome, error) {
		started <- struct{}{}
		select {
		case <-gates[spec.IW]:
			return Execute(ctx, spec)
		case <-ctx.Done():
			canceled <- struct{}{}
			return nil, ctx.Err()
		}
	}
	spec := func(iw int) JobSpec { return JobSpec{Bench: "VECTORADD", Policy: "bow-wr", IW: iw} }

	t.Run("joiner outlives first submitter", func(t *testing.T) {
		first, cancelFirst := context.WithCancel(context.Background())
		t1 := e.Submit(first, spec(3))
		<-started
		t2 := e.Submit(context.Background(), spec(3))
		cancelFirst()
		if _, err := t1.WaitContext(first); !errors.Is(err, context.Canceled) {
			t.Fatalf("first submitter: err %v, want its own cancellation", err)
		}
		close(gates[3])
		out, err := t2.Wait()
		if err != nil || out.Summary.Cycles <= 0 {
			t.Fatalf("joiner: err %v, want the real result", err)
		}
		select {
		case <-canceled:
			t.Fatal("the job was canceled while a joiner still waited")
		default:
		}
	})

	t.Run("abandoned job is canceled", func(t *testing.T) {
		only, cancelOnly := context.WithCancel(context.Background())
		tk := e.Submit(only, spec(4))
		<-started
		cancelOnly()
		select {
		case <-canceled:
		case <-time.After(5 * time.Second):
			t.Fatal("a job nobody waits for kept simulating")
		}
		if _, err := tk.Wait(); err == nil {
			t.Fatal("abandoned job reported success")
		}
	})

	t.Run("resubmission after abandonment runs afresh", func(t *testing.T) {
		only, cancelOnly := context.WithCancel(context.Background())
		e.Submit(only, spec(5))
		<-started
		cancelOnly()
		<-canceled
		close(gates[5])
		if _, err := e.Do(context.Background(), spec(5)); err != nil {
			t.Fatalf("resubmission: %v", err)
		}
	})
}
