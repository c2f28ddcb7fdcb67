package gpu

import (
	"reflect"
	"testing"

	"bow/internal/policy"
)

// TestSnapshotAfterMidRunInterrupt snapshots a device that an Interrupt
// (a drain) stopped mid-run. The run loop then returns between two
// cycles without building a result, so nothing has read the statistics
// since the run began, and the occupancy runs are still open: the
// snapshot must flush them itself. Resuming the snapshot must reproduce
// the cold run, Fig. 9 histogram included, for the windowed rows and
// for the two whose engines move occupancy their own way (carfc's
// last-use frees, ltrf's interval drains). The interrupt is raised
// between two steps of the loop at a fixed cycle, so the check is
// deterministic.
func TestSnapshotAfterMidRunInterrupt(t *testing.T) {
	l := newRecycleLauncher(t, "VECTORADD")
	for _, name := range []string{policy.BOWWT, policy.BOWWR, policy.CARFC, policy.LTRF} {
		bcfg := rowConfig(name, 0)
		cold, cm := l.build(bcfg, nil, false)
		want := l.run(cold, cm, bcfg)

		live, _ := l.build(bcfg, nil, false)
		for live.cycles < want.Cycles/2 {
			if st, err := live.step(defaultMaxCycles, 0); err != nil || st != stepRan {
				t.Fatalf("%s: step at cycle %d: state %d, %v", name, live.cycles, st, err)
			}
		}
		live.Interrupt()
		if _, err := live.Run(0); err != ErrInterrupted {
			t.Fatalf("%s: interrupted run returned %v, want ErrInterrupted", name, err)
		}
		blob, _, err := live.SnapshotBytes(nil)
		if err != nil {
			t.Fatalf("%s: snapshot: %v", name, err)
		}
		d, m := l.build(bcfg, nil, true)
		if _, err := d.RestoreBytes(blob); err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		if got := l.run(d, m, bcfg); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: run resumed after a mid-run interrupt differs from the cold run\nresumed %+v\ncold    %+v",
				name, got.Stats, want.Stats)
		}
	}
}
