package sm

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"bow/internal/asm"
	"bow/internal/config"
	"bow/internal/core"
	"bow/internal/mem"
	"bow/internal/snap"
)

// snapRig holds an SM together with the device-level state (global
// memory, L2) that an SM snapshot does not carry, so tests can
// checkpoint the complete simulation state of a single-SM device.
type snapRig struct {
	s  *SM
	m  *mem.Memory
	l2 *mem.Cache
}

func newSnapRig(t *testing.T, src string, grid, block int, params []uint32, bcfg core.Config) *snapRig {
	t.Helper()
	prog, err := asm.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	k := &Kernel{Program: prog, GridDim: grid, BlockDim: block, Params: params}
	if err := k.Prepare(); err != nil {
		t.Fatal(err)
	}
	g := config.SimDefault()
	g.NumSMs = 1
	l2, err := mem.NewCache("L2", g.L2SizeKB*1024, g.L2LineBytes, g.L2Assoc)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewMemory()
	s, err := New(0, g, bcfg, k, m, l2)
	if err != nil {
		t.Fatal(err)
	}
	return &snapRig{s: s, m: m, l2: l2}
}

func (r *snapRig) save(t *testing.T) []byte {
	t.Helper()
	enc := snap.NewEncoder()
	st := snap.Save(enc)
	r.m.State(st)
	r.l2.State(st)
	r.s.FlushOccupancy()
	r.s.State(st)
	b, err := enc.Bytes()
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	return b
}

func (r *snapRig) load(t *testing.T, b []byte) {
	t.Helper()
	dec := snap.NewDecoder(b)
	st := snap.Load(dec)
	r.m.State(st)
	r.l2.State(st)
	r.s.State(st)
	if err := dec.Close(); err != nil {
		t.Fatalf("load: %v", err)
	}
}

// snapLoopKernel sums an 8-word window of the input per thread and
// stores the result: enough loads, ALU work, and a data-dependent
// backward branch to populate collectors, the wheel, and the caches at
// almost any snapshot cycle.
const snapLoopKernel = `
.kernel snaploop
  mov r0, %tid.x
  mov r1, %ctaid.x
  mov r2, %ntid.x
  mad r3, r1, r2, r0
  shl r4, r3, 0x2
  ld.param r5, [rz+0x0]
  ld.param r6, [rz+0x4]
  add r7, r5, r4
  mov r8, 0x0
  mov r9, 0x0
  mov r10, 0x8
SLOOP:
  ld.global r11, [r7+0x0]
  add r8, r8, r11
  add r7, r7, 0x4
  add r9, r9, 0x1
  setp.lt p0, r9, r10
  @p0 bra SLOOP
  add r12, r6, r4
  st.global [r12+0x0], r8
  exit
`

const (
	snapIn   = 0x1000
	snapOut  = 0x4000
	snapGrid = 2
	snapBlk  = 64
)

func primeSnapInput(t *testing.T, m *mem.Memory) {
	t.Helper()
	// Threads read in[g..g+7]; the last thread reaches index n+7.
	n := snapGrid*snapBlk + 8
	for i := 0; i < n; i++ {
		if err := m.Write32(snapIn+uint32(4*i), uint32(i*i+3)); err != nil {
			t.Fatal(err)
		}
	}
}

func runToIdle(t *testing.T, s *SM, bound int) int {
	t.Helper()
	cycles := 0
	for ; cycles < bound && !s.Idle(); cycles++ {
		s.Cycle()
	}
	if !s.Idle() {
		t.Fatalf("SM not idle after %d cycles", bound)
	}
	return cycles
}

// TestSMSnapshotMidRunDifferential checkpoints a running SM at several
// cycles, restores each snapshot into a fresh SM, continues both to
// completion, and requires the restored run to match a cold run
// exactly: same statistics, same register file, same memory end state.
func TestSMSnapshotMidRunDifferential(t *testing.T) {
	for _, bcfg := range []core.Config{
		{Policy: core.PolicyBaseline},
		{Policy: core.PolicyWriteThrough, IW: 4, Capacity: 8},
		{Policy: core.PolicyWriteBack, IW: 4, Capacity: 8},
	} {
		params := []uint32{snapIn, snapOut}
		oracle := newSnapRig(t, snapLoopKernel, snapGrid, snapBlk, params, bcfg)
		primeSnapInput(t, oracle.m)
		for i := 0; i < snapGrid; i++ {
			if err := oracle.s.AssignCTA(i); err != nil {
				t.Fatal(err)
			}
		}
		runToIdle(t, oracle.s, 100000)
		wantStats := *oracle.s.Stats()
		wantMem := oracle.m.Snapshot()

		for _, snapAt := range []int{1, 7, 33, 120, 500} {
			live := newSnapRig(t, snapLoopKernel, snapGrid, snapBlk, params, bcfg)
			primeSnapInput(t, live.m)
			for i := 0; i < snapGrid; i++ {
				if err := live.s.AssignCTA(i); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < snapAt && !live.s.Idle(); i++ {
				live.s.Cycle()
			}
			blob := live.save(t)

			restored := newSnapRig(t, snapLoopKernel, snapGrid, snapBlk, params, bcfg)
			restored.load(t, blob)

			// Restored state must re-serialize byte-identically: the walk
			// order is canonical, not an accident of pointer layout.
			if blob2 := restored.save(t); !bytes.Equal(blob, blob2) {
				t.Fatalf("policy %v snap@%d: restored state does not re-serialize identically", bcfg.Policy, snapAt)
			}

			// Continue both; they must stay in step.
			runToIdle(t, live.s, 100000)
			runToIdle(t, restored.s, 100000)
			liveStats, restStats := *live.s.Stats(), *restored.s.Stats()
			if !reflect.DeepEqual(liveStats, wantStats) {
				t.Fatalf("policy %v snap@%d: snapshotted run diverged from oracle: %+v vs %+v",
					bcfg.Policy, snapAt, liveStats, wantStats)
			}
			if !reflect.DeepEqual(restStats, wantStats) {
				t.Fatalf("policy %v snap@%d: restored run diverged from oracle: %+v vs %+v",
					bcfg.Policy, snapAt, restStats, wantStats)
			}
			if got := restored.m.Snapshot(); !reflect.DeepEqual(got, wantMem) {
				t.Fatalf("policy %v snap@%d: restored memory end state differs", bcfg.Policy, snapAt)
			}
			if restored.s.RegFileStats() != live.s.RegFileStats() {
				t.Fatalf("policy %v snap@%d: register file stats diverged", bcfg.Policy, snapAt)
			}
		}
	}
}

// TestSMSnapshotWheelHorizon pins the far-event contract across a
// checkpoint (the satellite case for horizon-boundary migration): an
// event exactly at now+mask stays on the wheel, one cycle past it parks
// on the far list, and a snapshot taken mid-rotation restores both so
// they fire at the same cycles in the same order.
func TestSMSnapshotWheelHorizon(t *testing.T) {
	rig := newSnapRig(t, snapLoopKernel, snapGrid, snapBlk, []uint32{snapIn, snapOut}, core.Config{Policy: core.PolicyBaseline})
	s := rig.s
	mask := s.wheel.mask

	// Advance mid-rotation so slot indexing wraps: an empty SM's cycle
	// counter moves without touching the wheel.
	for i := int64(0); i < mask/2+3; i++ {
		s.Cycle()
	}
	now := s.cycle

	type stamp struct {
		at  int64
		reg uint8
	}
	plan := []stamp{
		{now + 1, 10},        // next cycle
		{now + mask, 20},     // exactly at the horizon: wheel
		{now + mask + 1, 30}, // one past the horizon: far list
		{now + mask + 7, 40}, // deeper far event
		{now + mask, 21},     // same-cycle pair to pin chain order
	}
	for _, p := range plan {
		ev := s.wheel.alloc()
		ev.kind = evNoDest
		ev.reg = p.reg
		s.wheel.schedule(now, p.at, ev)
	}
	if got := len(s.wheel.far); got != 2 {
		t.Fatalf("far list has %d events before snapshot, want 2", got)
	}

	blob := rig.save(t)
	restored := newSnapRig(t, snapLoopKernel, snapGrid, snapBlk, []uint32{snapIn, snapOut}, core.Config{Policy: core.PolicyBaseline})
	restored.load(t, blob)
	if got := len(restored.s.wheel.far); got != 2 {
		t.Fatalf("far list has %d events after restore, want 2", got)
	}
	if blob2 := restored.save(t); !bytes.Equal(blob, blob2) {
		t.Fatal("restored wheel state does not re-serialize identically")
	}

	// Pump both wheels directly and compare complete firing schedules.
	fire := func(w *eventWheel) []stamp {
		var out []stamp
		for c := now + 1; c <= now+mask+16; c++ {
			for ev := w.due(c); ev != nil; {
				next := ev.next
				out = append(out, stamp{c, ev.reg})
				w.release(ev)
				ev = next
			}
		}
		return out
	}
	got := fire(restored.s.wheel)
	want := []stamp{
		{now + 1, 10},
		{now + mask, 20},
		{now + mask, 21},
		{now + mask + 1, 30},
		{now + mask + 7, 40},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored firing schedule = %v, want %v", got, want)
	}
	if orig := fire(rig.s.wheel); !reflect.DeepEqual(orig, want) {
		t.Fatalf("original firing schedule = %v, want %v", orig, want)
	}
	if len(restored.s.wheel.far) != 0 {
		t.Error("restored far list not drained")
	}
}

// TestSMSnapshotRejectsReferenceLoop: the map-calendar reference mode
// has no deterministic serialization order and must refuse snapshots.
func TestSMSnapshotRejectsReferenceLoop(t *testing.T) {
	rig := newSnapRig(t, snapLoopKernel, 1, 32, []uint32{snapIn, snapOut}, core.Config{Policy: core.PolicyBaseline})
	rig.s.ref = true
	enc := snap.NewEncoder()
	rig.s.State(snap.Save(enc))
	if _, err := enc.Bytes(); err == nil {
		t.Fatal("reference-loop SM serialized without error")
	}
}

// TestSMLoadStateRejectsHugeCounts: an in-flight table or capture map
// that claims 1<<24 records its payload cannot hold fails the restore
// before anything is sized from the count — a crafted checkpoint sent
// to /simulate cannot exhaust the daemon's memory.
func TestSMLoadStateRejectsHugeCounts(t *testing.T) {
	rig := newSnapRig(t, snapLoopKernel, 1, 32, []uint32{snapIn, snapOut}, core.Config{Policy: core.PolicyBaseline})
	for _, tc := range []struct {
		name    string
		payload func(enc *snap.Encoder)
		load    func(st *snap.State)
	}{
		{"inflight", func(enc *snap.Encoder) {
			enc.I64(0)
			rig.s.st.State(snap.Save(enc))
			enc.Int(0)
			enc.Int(0)
			enc.U32(1 << 24)
		}, rig.s.State},
		{"capture-values", func(enc *snap.Encoder) {
			enc.U32(1)
			enc.Int(0)
			enc.Int(0)
			enc.U32(1 << 24)
		}, rig.s.captureState},
		{"capture-trace", func(enc *snap.Encoder) {
			enc.U32(0)
			enc.U32(1)
			enc.Int(0)
			enc.Int(0)
			enc.U32(1 << 24)
		}, rig.s.captureState},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc := snap.NewEncoder()
			tc.payload(enc)
			enc.U64(0) // a few bytes of record, far short of the claim
			b, err := enc.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			dec := snap.NewDecoder(b)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tc.load(snap.Load(dec))
			runtime.ReadMemStats(&after)
			if dec.Err() == nil {
				t.Fatal("a count of 1<<24 records restored without error")
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Errorf("rejecting the count allocated %d bytes", grew)
			}
		})
	}
}
