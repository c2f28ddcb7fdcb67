package regfile

import (
	"testing"

	"bow/internal/core"
)

func mkFile(t *testing.T, lat int) *File {
	t.Helper()
	f, err := New(Config{NumBanks: 4, WarpRegsPerB: 64, MaxWarps: 4, AccessLatency: lat})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func val(x uint32) *core.Value {
	var v core.Value
	for i := range v {
		v[i] = x
	}
	return &v
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if DefaultConfig().SizeBytes() != 256*1024 {
		t.Errorf("default size = %d, want 256KB", DefaultConfig().SizeBytes())
	}
}

func TestBankMapping(t *testing.T) {
	f := mkFile(t, 0)
	if f.Bank(0, 0) != 0 || f.Bank(0, 1) != 1 || f.Bank(0, 4) != 0 {
		t.Error("register striping wrong")
	}
	// Warp interleave: same register of different warps lands elsewhere.
	if f.Bank(1, 0) == f.Bank(0, 0) {
		t.Error("warp interleave missing")
	}
}

func TestReadWriteThroughPorts(t *testing.T) {
	f := mkFile(t, 0)
	f.EnqueueWrite(0, 5, val(99))
	var got core.Value
	delivered := false
	f.EnqueueReadSink(0, 5, sinkFunc(func(_ uint8, v *core.Value) { got = *v; delivered = true }))

	// Same bank: write has priority and is served first; the read is
	// served the following cycle and sees the new value.
	f.Cycle()
	if delivered {
		t.Fatal("read delivered same cycle as conflicting write")
	}
	f.Cycle()
	if !delivered || got[0] != 99 {
		t.Fatalf("read delivered=%v val=%d", delivered, got[0])
	}
	st := f.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.BankConflicts == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAccessLatencyPipeline(t *testing.T) {
	f := mkFile(t, 3)
	f.Poke(0, 5, val(7))
	delivered := int64(-1)
	f.EnqueueReadSink(0, 5, sinkFunc(func(uint8, *core.Value) { delivered = f.cycle }))
	for i := 0; i < 10 && delivered < 0; i++ {
		f.Cycle()
	}
	// Served at cycle 1, delivered at 1+3 = 4.
	if delivered != 4 {
		t.Errorf("delivery cycle = %d, want 4", delivered)
	}
}

func TestOnePerBankPerCycle(t *testing.T) {
	f := mkFile(t, 0)
	count := 0
	// Three reads to the same bank (same warp, same reg).
	for i := 0; i < 3; i++ {
		f.EnqueueReadSink(0, 4, sinkFunc(func(uint8, *core.Value) { count++ }))
	}
	f.Cycle()
	if count != 1 {
		t.Errorf("served %d in one cycle, want 1", count)
	}
	f.Cycle()
	f.Cycle()
	if count != 3 {
		t.Errorf("served %d after three cycles", count)
	}
	if f.Pending() != 0 {
		t.Errorf("pending = %d", f.Pending())
	}
}

func TestParallelBanks(t *testing.T) {
	f := mkFile(t, 0)
	count := 0
	// Four reads to four different banks: all served in one cycle.
	for r := uint8(0); r < 4; r++ {
		f.EnqueueReadSink(0, r, sinkFunc(func(uint8, *core.Value) { count++ }))
	}
	f.Cycle()
	if count != 4 {
		t.Errorf("served %d in one cycle across banks, want 4", count)
	}
	if f.Stats().BankConflicts != 0 {
		t.Error("independent banks counted as conflicts")
	}
}

func TestPeekPoke(t *testing.T) {
	f := mkFile(t, 0)
	f.Poke(2, 10, val(123))
	if got := f.Peek(2, 10); got[0] != 123 {
		t.Errorf("Peek = %d", got[0])
	}
	if got := f.Peek(0, 10); got[0] != 0 {
		t.Error("Poke leaked across warps")
	}
}

// TestResetMatchesFresh dirties a file — queued reads and writes,
// in-flight crossbar deliveries, nonzero registers, counted stats —
// then Resets it and demands it be indistinguishable from a new file:
// zero registers, zero stats, no pending work, and a replayed traffic
// pattern producing the exact same stats and delivery timing. The
// engine's carcass pool recycles register files across runs on this
// equivalence.
type sinkFunc func(reg uint8, val *core.Value)

func (fn sinkFunc) DeliverRead(reg uint8, val *core.Value) { fn(reg, val) }

func TestResetMatchesFresh(t *testing.T) {
	drive := func(f *File) (Stats, []int64) {
		var served []int64
		sink := sinkFunc(func(reg uint8, v *core.Value) {})
		for w := 0; w < 4; w++ {
			f.Poke(w, 0, val(uint32(w+1)))
			f.EnqueueWrite(w, 1, val(100+uint32(w)))
			f.EnqueueReadSink(w, 0, sink)
		}
		for c := 0; c < 12; c++ {
			f.Cycle()
			served = append(served, int64(f.Stats().Reads))
		}
		return f.Stats(), served
	}

	fresh := mkFile(t, 2)
	wantStats, wantServed := drive(fresh)

	recycled := mkFile(t, 2)
	// Dirty it thoroughly, including work left in flight.
	st1, _ := drive(recycled)
	if st1 != wantStats {
		t.Fatalf("determinism check failed before reset: %+v vs %+v", st1, wantStats)
	}
	recycled.EnqueueWrite(0, 2, val(7))
	recycled.EnqueueReadSink(1, 3, sinkFunc(func(reg uint8, v *core.Value) {}))
	recycled.Cycle() // leave deliveries mid-pipeline

	recycled.Reset()
	if got := recycled.Stats(); got != (Stats{}) {
		t.Fatalf("stats after reset: %+v", got)
	}
	if recycled.Pending() != 0 {
		t.Fatalf("pending after reset: %d", recycled.Pending())
	}
	for w := 0; w < 4; w++ {
		for r := 0; r < 8; r++ {
			if *recycled.Peek(w, uint8(r)) != (core.Value{}) {
				t.Fatalf("register w%d r%d nonzero after reset", w, r)
			}
		}
	}
	gotStats, gotServed := drive(recycled)
	if gotStats != wantStats {
		t.Errorf("replay stats diverge: %+v vs %+v", gotStats, wantStats)
	}
	for i := range wantServed {
		if gotServed[i] != wantServed[i] {
			t.Errorf("delivery timing diverges at cycle %d: %d vs %d", i, gotServed[i], wantServed[i])
		}
	}
}
