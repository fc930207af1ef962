// Package stats provides the small statistical toolkit the MFC coordinator
// and the experiment harness rely on: order statistics (median, arbitrary
// quantiles), running summaries, histograms and empirical CDFs.
//
// The paper's inference rule consumes the median normalized response time
// (Base and Small Query stages) and the 90th percentile (Large Object stage),
// so correctness of Quantile is load-bearing for the whole system.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// ErrEmpty is returned by order statistics on empty inputs.
var ErrEmpty = errors.New("stats: empty sample")

// Median returns the median of xs without modifying it.
// It returns ErrEmpty for an empty slice.
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks (type-7 estimator, the same convention
// as numpy's default). xs is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of range [0,1]", q)
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return quantileSorted(s, q), nil
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// MedianDuration is Median over durations; it returns 0 on empty input.
func MedianDuration(ds []time.Duration) time.Duration {
	return QuantileDuration(ds, 0.5)
}

// QuantileDuration returns the q-quantile of ds, or 0 on empty input.
// Durations are interpolated in float nanoseconds.
func QuantileDuration(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	v, err := Quantile(xs, q)
	if err != nil {
		return 0
	}
	return time.Duration(v)
}

// Mean returns the arithmetic mean, or an error on empty input.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Stddev returns the sample standard deviation (n-1 denominator).
// It returns 0 for samples of size < 2.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m, _ := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Min returns the minimum, or an error on empty input.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum, or an error on empty input.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Summary captures the usual five-number-plus summary of a sample.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P90    float64
	P99    float64
	Max    float64
}

// Summarize computes a Summary of xs. A zero Summary is returned for an
// empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	mean, _ := Mean(s)
	return Summary{
		N:      len(s),
		Mean:   mean,
		Stddev: Stddev(s),
		Min:    s[0],
		P25:    quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		P75:    quantileSorted(s, 0.75),
		P90:    quantileSorted(s, 0.90),
		P99:    quantileSorted(s, 0.99),
		Max:    s[len(s)-1],
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f min=%.2f p50=%.2f p90=%.2f max=%.2f",
		s.N, s.Mean, s.Stddev, s.Min, s.Median, s.P90, s.Max)
}
