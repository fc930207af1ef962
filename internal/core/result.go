package core

import (
	"fmt"
	"strings"
	"time"

	"mfc/internal/stats"
)

// EpochKind distinguishes regular ramp epochs from check-phase epochs.
type EpochKind int

const (
	// EpochRamp is a regular progressing epoch.
	EpochRamp EpochKind = iota
	// EpochCheckMinus, EpochCheckRepeat and EpochCheckPlus are the three
	// confirmation epochs (N-1, N, N+1).
	EpochCheckMinus
	EpochCheckRepeat
	EpochCheckPlus
)

func (k EpochKind) String() string {
	switch k {
	case EpochRamp:
		return "ramp"
	case EpochCheckMinus:
		return "check-"
	case EpochCheckRepeat:
		return "check="
	case EpochCheckPlus:
		return "check+"
	default:
		return fmt.Sprintf("EpochKind(%d)", int(k))
	}
}

// EpochResult records one epoch's outcome.
type EpochResult struct {
	Index     int
	Kind      EpochKind
	Crowd     int // clients participating
	Scheduled int // requests scheduled (Crowd × MultiRequest)
	Received  int // samples actually collected
	Errors    int // samples with Err != ""
	// NormQuantile is the detection quantile of normalized response time,
	// with error-class samples (timeouts, 429 rejections, 5xx failures)
	// scored as the full request timeout — a refused client is at least as
	// degraded as one that waited out the clock.
	NormQuantile time.Duration
	// NormMedian is always recorded for reference: the raw quantile of
	// observed latencies, with no error-class floor (it feeds the response
	// curves, which plot what clients measured, not the detection rule).
	NormMedian time.Duration
	Exceeded   bool // NormQuantile > θ
	// Samples is populated only with Config.KeepSamples.
	Samples []Sample
	// Spread90 is the arrival-time spread of the middle 90% of requests at
	// the target, when arrival instants are known (Table 2).
	Spread90 time.Duration
	// ArriveAt is the scheduled common arrival instant (platform clock) and
	// Done the instant collection finished — the window for correlating
	// with server-side resource monitoring (Figures 5 and 6).
	ArriveAt time.Duration
	Done     time.Duration
	// MeasurerMedians is the §6 measurer extension's output: per measurer
	// URL, the median normalized response time observed by the reserved
	// measurer clients during this epoch. Nil unless Config.Measurers is
	// set.
	MeasurerMedians map[string]time.Duration
}

// StageVerdict is the stage-level inference.
type StageVerdict int

const (
	// VerdictNoStop: no confirmed degradation up to MaxCrowd — the
	// sub-system is unconstrained at the probed volumes.
	VerdictNoStop StageVerdict = iota
	// VerdictStopped: the check phase confirmed a degradation at
	// StoppingCrowd.
	VerdictStopped
	// VerdictUnavailable: the stage could not run (no matching content).
	VerdictUnavailable
	// VerdictAborted: the experiment was aborted (too few clients).
	VerdictAborted
)

func (v StageVerdict) String() string {
	switch v {
	case VerdictNoStop:
		return "NoStop"
	case VerdictStopped:
		return "Stopped"
	case VerdictUnavailable:
		return "Unavailable"
	case VerdictAborted:
		return "Aborted"
	default:
		return fmt.Sprintf("StageVerdict(%d)", int(v))
	}
}

// StageResult is the outcome of one MFC stage.
type StageResult struct {
	Stage     Stage
	Verdict   StageVerdict
	Threshold time.Duration
	Quantile  float64

	// StoppingCrowd is the confirmed stopping crowd size. It is nonzero
	// exactly when Verdict is VerdictStopped, so callers read it without
	// checking the verdict; under MFC-mr the stop in requests is
	// StoppingCrowd × MultiRequest.
	StoppingCrowd int
	// FirstExceed is the earliest crowd size whose quantile exceeded θ,
	// even below the 15-client significance floor — the post-analysis the
	// paper applies to Univ-1 (footnote 2). 0 if never exceeded.
	FirstExceed int

	Epochs        []EpochResult
	TotalRequests int // requests scheduled across all epochs
	Started       time.Duration
	Elapsed       time.Duration
}

// LastRamp returns the final ramp epoch, or nil.
func (r *StageResult) LastRamp() *EpochResult {
	for i := len(r.Epochs) - 1; i >= 0; i-- {
		if r.Epochs[i].Kind == EpochRamp {
			return &r.Epochs[i]
		}
	}
	return nil
}

// CurveMedians returns (crowd, median-normalized) series over ramp epochs —
// the Figure 4/5/6 response curves.
func (r *StageResult) CurveMedians() (crowds []int, medians []time.Duration) {
	for _, e := range r.Epochs {
		if e.Kind != EpochRamp {
			continue
		}
		crowds = append(crowds, e.Crowd)
		medians = append(medians, e.NormMedian)
	}
	return crowds, medians
}

// Result is a full MFC experiment outcome across stages.
type Result struct {
	Target string
	// Scenario names the scenario wrapping the run's environment ("" for a
	// clean run). It is metadata only: it records the conditions the
	// verdicts were measured under, and is omitted from JSON when empty so
	// clean-run encodings are unchanged.
	Scenario string `json:"Scenario,omitempty"`
	Stages   []*StageResult
}

// Stage returns the result for s, or nil if the stage did not run.
func (r *Result) Stage(s Stage) *StageResult {
	for _, sr := range r.Stages {
		if sr.Stage == s {
			return sr
		}
	}
	return nil
}

// TotalRequests sums scheduled requests over all stages (Table 1's "#reqs").
func (r *Result) TotalRequests() int {
	n := 0
	for _, sr := range r.Stages {
		n += sr.TotalRequests
	}
	return n
}

// String renders a compact multi-line summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MFC result for %s (%d requests)\n", r.Target, r.TotalRequests())
	for _, sr := range r.Stages {
		switch sr.Verdict {
		case VerdictStopped:
			fmt.Fprintf(&b, "  %-12s stopped at crowd %d (θ=%v, q=%.2f)\n",
				sr.Stage, sr.StoppingCrowd, sr.Threshold, sr.Quantile)
		case VerdictNoStop:
			max := 0
			if e := sr.LastRamp(); e != nil {
				max = e.Crowd
			}
			fmt.Fprintf(&b, "  %-12s NoStop (max crowd %d)\n", sr.Stage, max)
		default:
			fmt.Fprintf(&b, "  %-12s %v\n", sr.Stage, sr.Verdict)
		}
	}
	return b.String()
}

// detectionQuantileOf computes the detection quantile of normalized
// response times, scoring error-class samples (timeouts, 429 rejections,
// 5xx failures) as if the client had waited out the full request timeout:
// max(Resp, timeout) − Base. Timeout samples already record Resp =
// timeout, so they are unchanged; the floor exists for *fast* failures. A
// WAF that rejects over-limit requests with an instant 429 used to read
// as healthy — the latency quantile saw only quick responses — even
// though the crowd provably could not get service. A client that is
// refused is at least as degraded as one that waited the timeout, so
// detection scores it that way, while the raw quantileOf keeps feeding
// the reference curves (NormMedian) with observed latencies only.
func detectionQuantileOf(samples []Sample, q float64, timeout time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	ds := make([]time.Duration, len(samples))
	for i, s := range samples {
		d := s.Normalized()
		if s.ErrorClass() {
			if floor := timeout - s.Base; floor > d {
				d = floor
			}
		}
		ds[i] = d
	}
	return stats.QuantileDuration(ds, q)
}

// quantileOf computes the configured quantile of normalized response times
// in a set of samples.
func quantileOf(samples []Sample, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	ds := make([]time.Duration, len(samples))
	for i, s := range samples {
		ds[i] = s.Normalized()
	}
	return stats.QuantileDuration(ds, q)
}

// spread90 computes the arrival-time spread of the middle 90% of samples
// that carry arrival instants (Table 2's third column). Zero if fewer than
// two samples have arrival data.
func spread90(samples []Sample) time.Duration {
	var at []time.Duration
	for _, s := range samples {
		if s.ArriveAt > 0 {
			at = append(at, s.ArriveAt)
		}
	}
	if len(at) < 2 {
		return 0
	}
	lo := stats.QuantileDuration(at, 0.05)
	hi := stats.QuantileDuration(at, 0.95)
	return hi - lo
}
