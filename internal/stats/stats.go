// Package stats provides the small statistics toolkit used across the
// simulator: integer histograms, running means, and fixed-width table
// rendering for the experiment reports.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// denseSlots is the value range served by the histogram's array fast
// path. Hot-loop samples (BOC occupancy, operand counts) are small
// non-negative integers, so Observe on them is a bounded-slot increment
// with no map hashing or interface cost; anything outside [0,
// denseSlots) falls back to a lazily allocated map.
const denseSlots = 64

// Histogram counts occurrences of integer-valued samples.
//
//bow:state
type Histogram struct {
	dense  [denseSlots]int64
	counts map[int]int64 // overflow values only; nil until needed
	total  int64
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{}
}

// Reset empties the histogram in place, restoring it to the state
// NewHistogram returns without giving up the dense storage. The
// engine's carcass pool recycles per-SM histograms across runs on the
// strength of this equivalence.
func (h *Histogram) Reset() {
	h.dense = [denseSlots]int64{}
	h.counts = nil
	h.total = 0
}

// Add records n occurrences of value v.
func (h *Histogram) Add(v int, n int64) {
	if uint(v) < denseSlots {
		h.dense[v] += n
	} else {
		if h.counts == nil {
			h.counts = make(map[int]int64)
		}
		h.counts[v] += n
	}
	h.total += n
}

// Observe records one occurrence. The dense path is allocation-free:
// the simulator calls this once per active warp-cycle.
func (h *Histogram) Observe(v int) {
	if uint(v) < denseSlots {
		h.dense[v]++
		h.total++
		return
	}
	h.Add(v, 1)
}

// Total is the number of samples.
func (h *Histogram) Total() int64 { return h.total }

// Count returns the tally for value v.
func (h *Histogram) Count(v int) int64 {
	if uint(v) < denseSlots {
		return h.dense[v]
	}
	return h.counts[v]
}

// Frac returns the fraction of samples equal to v.
func (h *Histogram) Frac(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.total)
}

// each iterates all (value, count) pairs with nonzero counts in
// ascending value order: dense slots first, then sorted overflow keys,
// so every derived statistic and rendering is reproducible.
func (h *Histogram) each(fn func(v int, c int64)) {
	for v, c := range h.dense {
		if c != 0 {
			fn(v, c)
		}
	}
	over := make([]int, 0, len(h.counts))
	for v := range h.counts {
		over = append(over, v)
	}
	sort.Ints(over)
	for _, v := range over {
		if c := h.counts[v]; c != 0 {
			fn(v, c)
		}
	}
}

// FracAtLeast returns the fraction of samples >= v.
func (h *Histogram) FracAtLeast(v int) float64 {
	if h.total == 0 {
		return 0
	}
	var n int64
	h.each(func(k int, c int64) {
		if k >= v {
			n += c
		}
	})
	return float64(n) / float64(h.total)
}

// Mean returns the sample mean.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	h.each(func(k int, c int64) {
		sum += float64(k) * float64(c)
	})
	return sum / float64(h.total)
}

// Quantile returns the smallest observed value v such that at least a
// fraction q of the samples are <= v (the empirical q-quantile). q is
// clamped to [0, 1] and a NaN q is treated as 0 (a NaN would slip past
// both clamp comparisons and make the int64 conversion below
// platform-defined); an empty histogram returns 0. The job engine uses
// this for its p50/p99 latency gauges.
func (h *Histogram) Quantile(q float64) int {
	if h.total == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for _, k := range h.Keys() {
		cum += h.Count(k)
		if cum >= target {
			return k
		}
	}
	return h.Max()
}

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() int {
	max := 0
	first := true
	h.each(func(k int, _ int64) {
		if first || k > max {
			max = k
			first = false
		}
	})
	return max
}

// Keys returns observed values in ascending order.
func (h *Histogram) Keys() []int {
	ks := make([]int, 0, len(h.counts)+8)
	h.each(func(k int, _ int64) { ks = append(ks, k) })
	sort.Ints(ks)
	return ks
}

// Merge adds all samples of o into h.
func (h *Histogram) Merge(o *Histogram) {
	o.each(func(k int, c int64) { h.Add(k, c) })
}

// Window is a fixed-capacity sliding window of integer samples: once
// full, each new observation evicts the oldest. The cluster
// coordinator keeps recent job latencies in one and reads a high
// quantile off it to decide when to hedge a straggler — a window (not
// a histogram) because routing must react to what latency is *now*,
// not what it averaged over the whole run.
type Window struct {
	buf  []int
	n    int // samples held (== len(buf) once saturated)
	next int // ring write position
}

// NewWindow creates a window holding up to capacity samples
// (capacity <= 0 selects the default of 256).
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		capacity = 256
	}
	return &Window{buf: make([]int, capacity)}
}

// Observe records one sample, evicting the oldest when full.
func (w *Window) Observe(v int) {
	w.buf[w.next] = v
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
}

// Len is the number of samples currently held.
func (w *Window) Len() int { return w.n }

// Quantile returns the empirical q-quantile of the held samples (the
// smallest held value v with at least a fraction q of samples <= v).
// q is clamped to [0, 1] and a NaN q is treated as 0 (it would
// otherwise pass both clamp comparisons and index with an undefined
// int conversion); an empty window returns 0.
func (w *Window) Quantile(q float64) int {
	if w.n == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	sorted := make([]int, w.n)
	copy(sorted, w.buf[:w.n])
	sort.Ints(sorted)
	idx := int(math.Ceil(q*float64(w.n))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// Mean is an online arithmetic mean.
type Mean struct {
	sum float64
	n   int64
}

// Add records one sample. NaN samples are ignored: one poisoned input
// (e.g. a 0/0 ratio from an empty run) must not turn the whole mean —
// and every report derived from it — into NaN.
func (m *Mean) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	m.sum += v
	m.n++
}

// Value returns the mean (0 when empty).
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// N returns the sample count.
func (m *Mean) N() int64 { return m.n }

// Table renders rows of columns with aligned widths, for the experiment
// reports printed by cmd/bowbench.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are dropped and
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted cells: each argument is rendered
// with %v unless it is a float64, which renders with 2 decimals.
func (t *Table) AddRowf(cells ...any) {
	out := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			out = append(out, fmt.Sprintf("%.2f", v))
		default:
			out = append(out, fmt.Sprint(v))
		}
	}
	t.AddRow(out...)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}

// Pct formats a fraction as a percentage string.
func Pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
