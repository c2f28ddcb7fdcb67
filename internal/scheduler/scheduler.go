// Package scheduler implements the warp schedulers of one SM: GTO
// (greedy-then-oldest, the paper's Table II policy) and LRR
// (loose round-robin). Each scheduler owns a static partition of the
// SM's warp contexts and, per cycle, ranks its ready warps for issue.
package scheduler

import "fmt"

// Kind selects the scheduling policy.
type Kind uint8

// Scheduler kinds.
const (
	GTO Kind = iota
	LRR
)

// ParseKind maps the config string to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "gto":
		return GTO, nil
	case "lrr":
		return LRR, nil
	}
	return 0, fmt.Errorf("scheduler: unknown kind %q", s)
}

// Scheduler ranks the warps of one issue partition.
//
//bow:state
type Scheduler struct {
	kind  Kind  //bow:resetskip -- policy identity, fixed at construction; Reset restores decision state only
	warps []int //bow:resetskip -- static warp partition, fixed at construction
	// greedy is the warp GTO sticks with until it stalls.
	greedy int
	// rrNext is LRR's rotation cursor (index into warps).
	rrNext int
	// out is the ranking buffer Order returns, reused across cycles;
	// callers consume it before the next Order call.
	out []int //bow:snapskip -- scratch ranking buffer, rebuilt by every Order call
}

// New creates a scheduler owning the given warp IDs (ordered oldest
// first).
func New(kind Kind, warps []int) *Scheduler {
	return &Scheduler{kind: kind, warps: append([]int(nil), warps...), greedy: -1}
}

// Reset clears the greedy/rotation state so the scheduler starts the
// next kernel exactly as a New one would. The ranking buffer is kept —
// it is scratch the next Order call rebuilds.
func (s *Scheduler) Reset() {
	s.greedy = -1
	s.rrNext = 0
}

// Greedy returns the warp GTO sticks with, or -1 when it has none
// (always -1 under LRR).
func (s *Scheduler) Greedy() int { return s.greedy }

// DropGreedy forgets the greedy warp, as Order does when that warp
// cannot issue. An SM that ranks its warps without calling Order calls
// it in the same circumstance.
func (s *Scheduler) DropGreedy() { s.greedy = -1 }

// RotationStart returns the warp the next ranking's rotation starts
// with: after the greedy warp (if any), Order ranks the warp list
// rotated to begin there. GTO never moves the cursor, so under GTO it
// is the oldest warp and the rotation is plain age order.
func (s *Scheduler) RotationStart() int { return s.warps[s.rrNext] }

// Order returns the warp IDs in the priority order they should be
// considered for issue this cycle. ready reports per warp whether it can
// issue at all (the scheduler uses it to advance its greedy/rotation
// state but still returns the full ranking; the issue stage re-checks
// readiness per instruction). The returned slice is owned by the
// scheduler and overwritten by the next Order call. The SM's reference
// issue scan is its one caller; the fast scan ranks over slot masks
// with Greedy, DropGreedy and RotationStart instead.
func (s *Scheduler) Order(ready func(warp int) bool) []int {
	switch s.kind {
	case GTO:
		return s.orderGTO(ready)
	default:
		return s.orderLRR()
	}
}

func (s *Scheduler) orderGTO(ready func(int) bool) []int {
	// Greedy warp first while it remains ready; then oldest-first. With
	// no ready greedy warp the ranking is just the age order.
	if s.greedy < 0 || !ready(s.greedy) {
		s.greedy = -1
		return s.warps
	}
	out := append(s.out[:0], s.greedy)
	for _, w := range s.warps {
		if w != s.greedy {
			out = append(out, w)
		}
	}
	s.out = out
	return out
}

func (s *Scheduler) orderLRR() []int {
	if s.out == nil {
		s.out = make([]int, 0, len(s.warps))
	}
	out := s.out[:0]
	n := len(s.warps)
	for i := 0; i < n; i++ {
		out = append(out, s.warps[(s.rrNext+i)%n])
	}
	s.out = out
	return out
}

// Issued informs the scheduler that warp w issued this cycle, updating
// greedy/rotation state.
func (s *Scheduler) Issued(w int) {
	switch s.kind {
	case GTO:
		s.greedy = w
	default:
		for i, x := range s.warps {
			if x == w {
				s.rrNext = (i + 1) % len(s.warps)
				break
			}
		}
	}
}
