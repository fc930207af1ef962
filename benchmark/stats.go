package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// spread summarizes one metric's samples the way the choosing-metrics guide
// asks: a median with its quartiles, the sample count, and the highest
// percentile that still has at least ten samples beyond it.
type spread struct {
	N          int     `json:"n"`
	Median     float64 `json:"median"`
	Q1         float64 `json:"q1"`
	Q3         float64 `json:"q3"`
	High       float64 `json:"high,omitempty"`     // value at HighPct
	HighPct    float64 `json:"high_pct,omitempty"` // 0 when N < 20
	Min        float64 `json:"min"`
	Max        float64 `json:"max"`
	IQRPercent float64 `json:"iqr_pct"` // (Q3-Q1)/median*100
}

// summarize folds samples into a spread. The quartiles use the same
// "exclusive" rule as Python's statistics.quantiles(v, n=4), so the spread
// this program prints is the spread an outside harness computes from the
// same values.
func summarize(samples []float64) spread {
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	d := spread{N: len(v)}
	if d.N == 0 {
		return d
	}
	d.Min, d.Max = v[0], v[d.N-1]
	d.Q1, d.Median, d.Q3 = quantile(v, 1), quantile(v, 2), quantile(v, 3)
	if d.Median != 0 {
		d.IQRPercent = (d.Q3 - d.Q1) / math.Abs(d.Median) * 100
	}
	if d.N >= 20 {
		i := d.N - 11 // ten samples lie beyond index N-11
		d.High, d.HighPct = v[i], float64(i+1)/float64(d.N)*100
	}
	return d
}

// quantile returns the i-th quartile (i in 1..3) of sorted v by the
// exclusive method: position i(N+1)/4, linearly interpolated, clamped.
func quantile(v []float64, i int) float64 {
	n := len(v)
	if n == 1 {
		return v[0]
	}
	j, delta := i*(n+1)/4, i*(n+1)%4
	if j < 1 {
		j, delta = 1, 0
	} else if j > n-1 {
		j, delta = n-1, 4
	}
	return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// cpuNow returns the user+system CPU time of this process and of every
// child it has waited for (fleet-file's worker processes).
func cpuNow() time.Duration {
	total := time.Duration(0)
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err == nil {
			total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		}
	}
	return total
}

// workerPeakKB is the largest resident set any fleet-file worker process
// reported about itself; execFleetFile updates it once its workers have
// exited. RUSAGE_CHILDREN would also do, except that run.sh execs this
// program from a shell that has already waited for `go build`, and a process
// keeps its children's high-water mark across exec.
var workerPeakKB int64

// selfPeakKB is this process's high-water resident set (Linux: KiB).
func selfPeakKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// peakRSSMB is the high-water resident set of the largest process of the
// run: this one or a fleet-file worker.
func peakRSSMB() float64 { return float64(max(selfPeakKB(), workerPeakKB)) / 1024 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
