package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mergeable streaming summaries for campaign-scale aggregation: a 10k-site
// sweep cannot hold every observation, so each result shard folds its sites
// into a Running (moments) and an IntHist (exact small-integer histogram),
// and the report merges the per-shard summaries in shard order. Both types
// are pure value folds: the merged state is a function of the (grouping,
// order) alone, never of execution timing. A campaign report always folds
// the same jobs through the same shard grouping in the same order, which is
// what makes resumed campaigns byte-identical to uninterrupted ones.
// (Float sums are associative only per-grouping — regrouping shifts the
// last ULP — so the report never mixes groupings.)

// Running is a mergeable moment accumulator: count, sum, min and max. The
// zero value is an empty summary ready for use.
type Running struct {
	N   int64   `json:"n"`
	Sum float64 `json:"sum"`
	Min float64 `json:"min"` // valid only when N > 0
	Max float64 `json:"max"` // valid only when N > 0
}

// Add folds one observation in.
func (r *Running) Add(x float64) {
	if r.N == 0 || x < r.Min {
		r.Min = x
	}
	if r.N == 0 || x > r.Max {
		r.Max = x
	}
	r.N++
	r.Sum += x
}

// Merge folds another summary in, as if every observation behind o had been
// Added to r (sums commute; min/max are order-free).
func (r *Running) Merge(o Running) {
	if o.N == 0 {
		return
	}
	if r.N == 0 || o.Min < r.Min {
		r.Min = o.Min
	}
	if r.N == 0 || o.Max > r.Max {
		r.Max = o.Max
	}
	r.N += o.N
	r.Sum += o.Sum
}

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (r Running) Mean() float64 {
	if r.N == 0 {
		return 0
	}
	return r.Sum / float64(r.N)
}

// IntHist is a mergeable exact histogram over (small) integer observations
// — stopping crowd sizes, request counts. Unlike a quantile sketch it is
// lossless: quantiles computed from a merged histogram equal quantiles of
// the concatenated samples exactly.
type IntHist struct {
	Counts map[int]int64 `json:"counts,omitempty"`
	N      int64         `json:"n"`
}

// Add folds one observation in.
func (h *IntHist) Add(v int) {
	if h.Counts == nil {
		h.Counts = make(map[int]int64)
	}
	h.Counts[v]++
	h.N++
}

// Merge folds another histogram in.
func (h *IntHist) Merge(o *IntHist) {
	if o == nil || o.N == 0 {
		return
	}
	if h.Counts == nil {
		h.Counts = make(map[int]int64, len(o.Counts))
	}
	for v, c := range o.Counts {
		h.Counts[v] += c
	}
	h.N += o.N
}

// Quantile returns the q-quantile of the multiset using the same type-7
// estimator as Quantile, without expanding the sample.
func (h *IntHist) Quantile(q float64) (float64, error) {
	if h.N == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of range [0,1]", q)
	}
	values := make([]int, 0, len(h.Counts))
	for v := range h.Counts {
		values = append(values, v)
	}
	sort.Ints(values)

	pos := q * float64(h.N-1)
	lo := int64(math.Floor(pos))
	hi := int64(math.Ceil(pos))
	vLo := float64(h.rank(values, lo))
	if lo == hi {
		return vLo, nil
	}
	vHi := float64(h.rank(values, hi))
	frac := pos - float64(lo)
	return vLo*(1-frac) + vHi*frac, nil
}

// rank returns the element at 0-based rank k of the sorted multiset.
func (h *IntHist) rank(sortedValues []int, k int64) int {
	var cum int64
	for _, v := range sortedValues {
		cum += h.Counts[v]
		if k < cum {
			return v
		}
	}
	return sortedValues[len(sortedValues)-1]
}
