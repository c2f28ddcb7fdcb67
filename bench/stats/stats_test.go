package stats

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-1, -1, 5}, -1},
	} {
		if got := Median(tc.in); !near(got, tc.want) {
			t.Errorf("Median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10.5, 9.5, 11.0, 10.0, 12.5, 9.0, 10.25, 10.75, 11.5, 10.1}, [3]float64{9.875, 10.375, 11.125}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		q1, q2, q3 := Quartiles(tc.in)
		if !near(q1, tc.want[0]) || !near(q2, tc.want[1]) || !near(q3, tc.want[2]) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v", tc.in, q1, q2, q3, tc.want)
		}
	}
}

func TestIQRFrac(t *testing.T) {
	if got := IQRFrac([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("IQRFrac = %v, want 1", got)
	}
	if got := IQRFrac([]float64{2, 2, 2, 2}); got != 0 {
		t.Errorf("IQRFrac of constants = %v, want 0", got)
	}
}

func TestMAD(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 1, 2, 2, 4, 6, 9}, 1},
		{[]float64{5, 5, 5}, 0},
		{[]float64{1, 2, 3, 4}, 1},
	} {
		if got := MAD(tc.in); !near(got, tc.want) {
			t.Errorf("MAD(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: Tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		value   float64
		pct     float64
		ok      bool
		comment string
	}{
		{11, 1, 100.0 / 11, true, "eleven samples: the minimum has ten beyond it"},
		{20, 10, 50, true, "twenty: the median"},
		{1000, 990, 99, true, "a thousand: p99"},
		{1500, 1490, 100 * 1490.0 / 1500, true, "fifteen hundred: ~p99.3"},
		{10, 10, 100, false, "ten samples: no value has ten beyond it"},
	} {
		v, p, ok := Tail(seq(tc.n))
		if !near(v, tc.value) || !near(p, tc.pct) || ok != tc.ok {
			t.Errorf("%s: Tail = (%v, %v, %v), want (%v, %v, %v)", tc.comment, v, p, ok, tc.value, tc.pct, tc.ok)
		}
	}
	if _, _, ok := Tail(nil); ok {
		t.Error("Tail(nil) reported ok")
	}
}
