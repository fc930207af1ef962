// Package stats provides the statistics the MFC coordinator and the
// experiment harness rely on: order statistics (median, arbitrary
// quantiles), mergeable running summaries, an exact integer histogram and
// the knee of a curve.
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
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// MedianDuration is the 0.5-quantile of ds; it returns 0 on empty input.
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
