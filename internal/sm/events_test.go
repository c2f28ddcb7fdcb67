package sm

import "testing"

// TestEventWheelOrder checks that events fire at their cycle in
// scheduling order, including events parked beyond the wheel horizon.
func TestEventWheelOrder(t *testing.T) {
	w := newEventWheel(10) // clamps to the 64-slot minimum
	if len(w.slots) != 64 {
		t.Fatalf("wheel size = %d, want 64", len(w.slots))
	}
	type sched struct {
		at  int64
		reg uint8 // payload to track identity
	}
	// Mix near events, same-cycle events (order matters), and far events
	// beyond the 63-cycle horizon.
	scheds := []sched{
		{3, 0}, {3, 1}, {5, 2}, {100, 3}, {3, 4}, {40, 5}, {100, 6},
	}
	for _, sc := range scheds {
		ev := w.alloc()
		ev.reg = sc.reg
		w.schedule(0, sc.at, ev)
	}
	var fired []struct {
		at  int64
		reg uint8
	}
	for now := int64(1); now <= 128; now++ {
		for ev := w.due(now); ev != nil; {
			next := ev.next
			fired = append(fired, struct {
				at  int64
				reg uint8
			}{now, ev.reg})
			w.release(ev)
			ev = next
		}
	}
	want := []struct {
		at  int64
		reg uint8
	}{
		{3, 0}, {3, 1}, {3, 4}, {5, 2}, {40, 5}, {100, 3}, {100, 6},
	}
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d: %v", len(fired), len(want), fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("fired[%d] = %+v, want %+v", i, fired[i], want[i])
		}
	}
	if len(w.far) != 0 {
		t.Errorf("far list not drained: %d left", len(w.far))
	}
}

// TestEventWheelFreelist checks that released records are recycled.
func TestEventWheelFreelist(t *testing.T) {
	w := newEventWheel(4)
	ev := w.alloc()
	ev.reg = 7
	w.release(ev)
	ev2 := w.alloc()
	if ev2 != ev {
		t.Error("released event not recycled")
	}
	if ev2.reg != 0 || ev2.next != nil {
		t.Errorf("recycled event not cleared: %+v", ev2)
	}
}

// TestReadyListOrder checks the dispatch-ordered intrusive list against
// its sort-based definition: (issueCycle, warp slot, seq).
func TestReadyListOrder(t *testing.T) {
	s := &SM{}
	w0, w1 := &warpCtx{slot: 0}, &warpCtx{slot: 3}
	mk := func(w *warpCtx, issue int64, seq int64) *inflight {
		return &inflight{warp: w, issueCycle: issue, seq: seq}
	}
	// Insert out of order; expect sorted walk.
	a := mk(w1, 5, 1)
	b := mk(w0, 5, 2)
	c := mk(w0, 2, 0)
	d := mk(w0, 5, 9) // same warp+cycle as b, later program order
	e := mk(w1, 7, 3)
	for _, f := range []*inflight{a, b, c, d, e} {
		s.readyInsert(f)
	}
	want := []*inflight{c, b, d, a, e}
	i := 0
	for f := s.readyHead; f != nil; f = f.rnext {
		if i >= len(want) || f != want[i] {
			t.Fatalf("ready list position %d wrong", i)
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("ready list has %d entries, want %d", i, len(want))
	}
	// Remove the middle and the head; the walk stays sorted and the
	// tail stays reachable.
	s.readyRemove(d)
	s.readyRemove(c)
	want = []*inflight{b, a, e}
	i = 0
	for f := s.readyHead; f != nil; f = f.rnext {
		if f != want[i] {
			t.Fatalf("after remove, position %d wrong", i)
		}
		i++
	}
	if s.readyTail != e {
		t.Error("tail pointer stale after removals")
	}
}

// TestRemoveCollectorClearsTail guards the freed-slot fix: the swap
// must nil the vacated tail entry so the dispatched record doesn't
// linger behind len() and keep its operand values live.
func TestRemoveCollectorClearsTail(t *testing.T) {
	s := &SM{issueState: make([]uint8, 1), busyCollectors: 2}
	w := &warpCtx{}
	f1, f2 := &inflight{warp: w}, &inflight{warp: w}
	w.collectors = append(w.collectors, f1, f2)
	s.removeCollector(f1)
	if len(w.collectors) != 1 || w.collectors[0] != f2 {
		t.Fatalf("collectors = %v", w.collectors)
	}
	if s.busyCollectors != 1 {
		t.Errorf("busy collectors = %d, want 1", s.busyCollectors)
	}
	if tail := w.collectors[:2][1]; tail != nil {
		t.Error("vacated tail slot still references the removed record")
	}
}
