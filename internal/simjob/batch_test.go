package simjob

import (
	"context"
	"sync"
	"testing"

	"bow/internal/artifact"
)

// TestBatchSweepServesCacheHits proves a second batched sweep is
// answered from the result cache without stepping any batch.
func TestBatchSweepServesCacheHits(t *testing.T) {
	e, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	sw := SweepSpec{Benches: []string{"VECTORADD"}, Policies: []string{PolicyBOWWT}, IWs: []int{2, 3, 4}, Batch: true}
	first, err := e.RunSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if first.BatchGroups == 0 {
		t.Fatal("first sweep formed no batch")
	}
	second, err := e.RunSweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if second.BatchGroups != 0 {
		t.Fatalf("second sweep re-simulated %d batches", second.BatchGroups)
	}
	for _, it := range second.Items {
		if it.Cached != "memory" {
			t.Fatalf("%s iw=%d served %q, want memory hit", it.Spec.Bench, it.Spec.IW, it.Cached)
		}
	}
}

// TestSharedArtifactsManyWorkersRace hammers one prepared kernel and
// one sealed image through the engine from many concurrent workers —
// the specs differ only in window capacity and size, so they all share
// the same artifact pair. Run under -race (the CI batch differential
// step does) this proves the shared-prep layer is data-race-free.
func TestSharedArtifactsManyWorkersRace(t *testing.T) {
	e, err := New(Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var specs []JobSpec
	for _, iw := range []int{2, 3, 4, 5, 6, 7} {
		for _, capa := range []int{0, 2} {
			specs = append(specs, JobSpec{Bench: "VECTORADD", Policy: PolicyBOWWT, IW: iw, Capacity: capa})
		}
	}
	var wg sync.WaitGroup
	for _, sp := range specs {
		wg.Add(1)
		go func(sp JobSpec) {
			defer wg.Done()
			if _, err := e.Do(context.Background(), sp); err != nil {
				t.Errorf("%+v: %v", sp, err)
			}
		}(sp)
	}
	wg.Wait()
	hits, misses := artifact.Default.Counters()
	if hits == 0 || misses == 0 {
		t.Errorf("artifact counters did not move (hits=%d misses=%d)", hits, misses)
	}
}
