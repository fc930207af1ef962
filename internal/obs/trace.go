package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"mfc/internal/core"
)

// Tracer records coordinator event streams as spans keyed by *simulated*
// time: every Start/End is the platform clock's virtual duration in
// microseconds, so a 40-minute experiment that ran in 8ms of wall clock
// renders as 40 minutes in Perfetto. One Tracer can hold many runs; each
// run is one WriteFleetTrace worker track named by its RunObserver label.
//
// Rows per run: row -1 carries one "run" span from 0 to the run's last
// virtual instant, and the instants — scenario activation, chaos faults
// and their restorations, check-phase entries, measurer reservations,
// errors; row 0 one span per stage; row 1 one span per epoch (ArriveAt →
// Done, the schedule-to-collect window). Stage and epoch spans come from
// the terminal ExperimentFinished's Result, whose StageResult/EpochResult
// carry the exact virtual intervals; instants are recorded live as their
// events fire. Span ids are numbered per run, so given unique labels the
// output does not depend on the order in which runs start or report.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// RunObserver returns the core.Observer that records one experiment run
// under label, to attach via WithObserver. The observer is called
// synchronously on the coordinator's goroutine; distinct runs may share
// one Tracer from different goroutines.
func (t *Tracer) RunObserver(label string) core.Observer {
	// lastAt tracks the most recent virtual timestamp seen, the anchor for
	// events that carry no time of their own (check-phase entry, measurer
	// reservation). Observers are single-goroutine per run, so no lock.
	var lastAt time.Duration
	var id uint64
	add := func(row int, name, cat string, from, to time.Duration, attrs ...SpanAttr) {
		id++
		sp := Span{ID: id, Name: name, Cat: cat, Worker: label, Shard: row,
			Start: from.Microseconds(), End: to.Microseconds(), Attrs: attrs}
		t.mu.Lock()
		t.spans = append(t.spans, sp)
		t.mu.Unlock()
	}
	instant := func(at time.Duration, name, cat string, attrs ...SpanAttr) {
		add(-1, name, cat, at, at, attrs...)
	}
	// span keeps a zero-length interval at least 1µs long, so it stays a
	// span rather than rendering as an instant.
	span := func(row int, name string, from, to time.Duration, attrs ...SpanAttr) {
		add(row, name, "mfc", from, max(to, from+time.Microsecond), attrs...)
	}
	return func(ev core.Event) {
		switch e := ev.(type) {
		case core.StageStarted:
			lastAt = e.At
		case core.EpochCompleted:
			lastAt = e.At
		case core.ScenarioApplied:
			instant(lastAt, "scenario "+e.Name, "scenario", A("effects", strings.Join(e.Effects, ",")))
		case core.FaultInjected:
			name := "fault " + e.Kind
			if e.Restored {
				name = "restore " + e.Kind
			}
			instant(e.At, name, "chaos", A("scenario", e.Scenario),
				A("duration", e.Duration.String()), ABool("restored", e.Restored))
			lastAt = max(lastAt, e.At)
		case core.CheckPhaseEntered:
			instant(lastAt, fmt.Sprintf("check phase @%d", e.Crowd), "mfc",
				A("stage", e.Stage.String()), AInt("crowd", int64(e.Crowd)))
		case core.MeasurersReserved:
			instant(lastAt, "measurers reserved", "mfc", A("url", e.URL), AInt("clients", int64(e.Clients)))
		case core.ExperimentFinished:
			if e.Err != "" {
				instant(lastAt, "error: "+e.Err, "mfc")
			}
			var stages []*core.StageResult
			if e.Result != nil {
				stages = e.Result.Stages
			}
			for _, sr := range stages {
				span(0, "stage "+sr.Stage.String(), sr.Started, sr.Started+sr.Elapsed,
					A("verdict", sr.Verdict.String()),
					AInt("stopping_crowd", int64(sr.StoppingCrowd)),
					AInt("first_exceed", int64(sr.FirstExceed)),
					A("threshold", sr.Threshold.String()),
					A("quantile", strconv.FormatFloat(sr.Quantile, 'g', -1, 64)),
					AInt("requests", int64(sr.TotalRequests)))
				for i := range sr.Epochs {
					ep := &sr.Epochs[i]
					span(1, fmt.Sprintf("epoch %d %s crowd=%d", ep.Index, ep.Kind, ep.Crowd), ep.ArriveAt, ep.Done,
						A("kind", ep.Kind.String()),
						AInt("crowd", int64(ep.Crowd)),
						AInt("scheduled", int64(ep.Scheduled)),
						AInt("received", int64(ep.Received)),
						AInt("errors", int64(ep.Errors)),
						A("norm_quantile", ep.NormQuantile.String()),
						A("norm_median", ep.NormMedian.String()),
						ABool("exceeded", ep.Exceeded))
				}
				lastAt = max(lastAt, sr.Started+sr.Elapsed)
			}
			span(-1, "run", 0, lastAt)
		}
	}
}

// WriteJSON writes every recorded run as one Chrome trace-event JSON
// document in WriteFleetTrace's layout, loadable in Perfetto and
// chrome://tracing.
func (t *Tracer) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return WriteFleetTrace(w, t.spans)
}
