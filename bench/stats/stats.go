// Package stats holds the order statistics the benchmark reports and
// compares: median, quartiles, median absolute deviation, and the tail
// percentile the metrics guide prescribes (the highest percentile with
// at least ten samples beyond it).
package stats

import (
	"math"
	"sort"
)

// TailBeyond is how many samples a reported tail must have beyond it.
const TailBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median is the middle value (mean of the two middle values for an
// even count); NaN for no samples.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the three cut points dividing xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with
// its default "exclusive" method, so IQRs printed here match the ones
// the acceptance check computes. One sample yields it three times; no
// samples yield NaNs.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		// Clamp j to 1..n-1 before taking delta, as Python does; for
		// tiny n that extrapolates past the sample range.
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// IQRFrac is the interquartile distance as a share of the median: the
// run-to-run spread the benchmark's bounds are judged against.
func IQRFrac(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}

// MAD is the median absolute deviation from the median.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	med := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return Median(dev)
}

// Tail returns the highest order statistic with at least TailBeyond
// samples above it, and the percentile (0..100) it sits at. With
// TailBeyond or fewer samples there is no such value; Tail then returns
// the maximum with ok=false so callers can flag the figure.
func Tail(xs []float64) (value, percentile float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), false
	}
	s := sorted(xs)
	if n <= TailBeyond {
		return s[n-1], 100, false
	}
	i := n - TailBeyond - 1
	return s[i], 100 * float64(i+1) / float64(n), true
}
