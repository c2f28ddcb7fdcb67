package simjob

import (
	"context"
	"sync"
	"testing"

	"bow/internal/artifact"
)

// TestSharedArtifactsManyWorkersRace hammers one prepared kernel and
// one sealed image through the engine from many concurrent workers —
// the specs differ only in window capacity and size, so they all share
// the same artifact pair. Run under -race (the CI shared-artifact
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
