package stats

import (
	"runtime"
	"testing"

	"bow/internal/snap"
)

// TestHistogramLoadStateRejectsHugeCount: a snapshot whose overflow
// map claims more entries than its bytes could hold fails the restore
// before anything is sized from the count, so a crafted checkpoint
// cannot exhaust memory.
func TestHistogramLoadStateRejectsHugeCount(t *testing.T) {
	enc := snap.NewEncoder()
	enc.I64(1)
	for range denseSlots {
		enc.I64(0)
	}
	enc.U32(1 << 24)
	enc.Int(1000)
	enc.I64(1)
	payload, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	h := NewHistogram()
	dec := snap.NewDecoder(payload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.State(snap.Load(dec))
	runtime.ReadMemStats(&after)
	if dec.Err() == nil {
		t.Fatal("a count of 1<<24 overflow entries restored without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("rejecting the count allocated %d bytes", grew)
	}
}
