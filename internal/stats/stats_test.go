package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianOdd(t *testing.T) {
	m, err := Median([]float64{3, 1, 2})
	if err != nil || !almostEq(m, 2) {
		t.Errorf("Median = %v, %v; want 2", m, err)
	}
}

func TestMedianEvenInterpolates(t *testing.T) {
	m, err := Median([]float64{1, 2, 3, 4})
	if err != nil || !almostEq(m, 2.5) {
		t.Errorf("Median = %v, %v; want 2.5", m, err)
	}
}

func TestMedianEmpty(t *testing.T) {
	if _, err := Median(nil); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{5, 1, 9, 3}
	lo, _ := Quantile(xs, 0)
	hi, _ := Quantile(xs, 1)
	if !almostEq(lo, 1) || !almostEq(hi, 9) {
		t.Errorf("q0=%v q1=%v, want 1 and 9", lo, hi)
	}
}

func TestQuantileOutOfRange(t *testing.T) {
	if _, err := Quantile([]float64{1}, 1.5); err == nil {
		t.Error("q=1.5 accepted")
	}
	if _, err := Quantile([]float64{1}, math.NaN()); err == nil {
		t.Error("q=NaN accepted")
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{9, 1, 5}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 9 || xs[1] != 1 || xs[2] != 5 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestQuantileSingleElement(t *testing.T) {
	for _, q := range []float64{0, 0.3, 0.5, 1} {
		v, err := Quantile([]float64{7}, q)
		if err != nil || v != 7 {
			t.Errorf("Quantile([7], %v) = %v, %v", q, v, err)
		}
	}
}

// Property: any quantile lies within [min, max] and is monotone in q.
func TestQuantileBoundsAndMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v, err := Quantile(xs, q)
			if err != nil {
				return false
			}
			if v < mn-1e-9 || v > mx+1e-9 || v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: median of sample+constant = median+constant (shift equivariance).
func TestMedianShiftProperty(t *testing.T) {
	f := func(seed int64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e12 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 1000
			ys[i] = xs[i] + shift
		}
		a, _ := Median(xs)
		b, _ := Median(ys)
		return math.Abs((a+shift)-b) < 1e-6*(1+math.Abs(shift))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileDuration(t *testing.T) {
	ds := []time.Duration{time.Second, 3 * time.Second, 2 * time.Second}
	if m := MedianDuration(ds); m != 2*time.Second {
		t.Errorf("MedianDuration = %v, want 2s", m)
	}
	if q := QuantileDuration(nil, 0.5); q != 0 {
		t.Errorf("QuantileDuration(nil) = %v, want 0", q)
	}
	if q := QuantileDuration(ds, 1); q != 3*time.Second {
		t.Errorf("q1 = %v, want 3s", q)
	}
}

func TestMeanAndStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, err := Mean(xs)
	if err != nil || !almostEq(m, 5) {
		t.Errorf("Mean = %v, %v; want 5", m, err)
	}
	// Sample stddev with n-1 denominator: sqrt(32/7).
	if sd := Stddev(xs); math.Abs(sd-math.Sqrt(32.0/7)) > 1e-9 {
		t.Errorf("Stddev = %v, want %v", sd, math.Sqrt(32.0/7))
	}
	if sd := Stddev([]float64{1}); sd != 0 {
		t.Errorf("Stddev of singleton = %v, want 0", sd)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.N != 10 || !almostEq(s.Min, 1) || !almostEq(s.Max, 10) || !almostEq(s.Median, 5.5) {
		t.Errorf("Summarize = %+v", s)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("Summarize(nil) = %+v", z)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}
