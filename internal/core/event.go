package core

import (
	"fmt"
	"strings"
	"time"
)

// The coordinator reports progress as a typed event stream instead of
// formatted log lines: every consumer (CLIs, the campaign engine, tests)
// reads the same structured facts and renders them however it needs. Events
// are delivered synchronously on the coordinator's goroutine, in the order
// the underlying steps happen — epoch events arrive in epoch order, and the
// terminal ExperimentFinished arrives exactly once per experiment.

// Event is one item of the coordinator's progress stream. The concrete
// types are StageStarted, EpochCompleted, MeasurersReserved,
// CheckPhaseEntered, ScenarioApplied, FaultInjected and
// ExperimentFinished.
type Event interface{ event() }

// Observer receives coordinator events. It is called synchronously from
// the coordinator's goroutine: implementations must be fast and must not
// call back into the coordinator. A nil Observer is silence.
type Observer func(Event)

// StageStarted announces that a stage is about to run.
type StageStarted struct {
	Stage Stage
	// At is the platform clock when the stage began.
	At time.Duration
}

// EpochCompleted reports one synchronized crowd's outcome, emitted after
// the epoch's samples are collected (before the inter-epoch gap).
type EpochCompleted struct {
	Stage Stage
	// Epoch is the experiment-wide epoch sequence number.
	Epoch int
	Kind  EpochKind
	// Crowd is the number of participating clients; Scheduled and Received
	// count requests sent vs. samples collected (UDP polls can be lost).
	Crowd     int
	Scheduled int
	Received  int
	Errors    int
	// Quantile is the detection quantile in effect for the stage;
	// NormQuantile is its observed normalized response time, NormMedian the
	// median for reference.
	Quantile     float64
	NormQuantile time.Duration
	NormMedian   time.Duration
	// Exceeded reports NormQuantile > θ — the epoch-level verdict that
	// drives the ramp and check phase.
	Exceeded bool
	// At is the platform clock when collection finished.
	At time.Duration
}

// MeasurersReserved reports the §6 measurer reservation: Clients clients
// were taken out of the crowd-eligible pool to probe URL every epoch.
type MeasurersReserved struct {
	URL     string
	Clients int
}

// CheckPhaseEntered announces the N-1/N/N+1 confirmation epochs after a
// ramp epoch at Crowd exceeded θ.
type CheckPhaseEntered struct {
	Stage Stage
	Crowd int
}

// ScenarioApplied announces, before the first stage, that the experiment's
// environment was wrapped by a scenario: the named effects are active for
// the whole run (scheduled faults are reported separately as they fire).
type ScenarioApplied struct {
	// Name is the scenario's registered or configured name.
	Name string
	// Effects lists the active effect kinds in canonical order (e.g.
	// "loss", "rate-limit", "flap@30s").
	Effects []string
}

// FaultInjected reports a chaos-controller trigger firing mid-experiment:
// at simulated time At, the fault Kind took effect (and, for transient
// faults, will be restored after Duration).
type FaultInjected struct {
	// Scenario is the owning scenario's name.
	Scenario string
	// Kind is the fault kind ("flap", "capacity-step", "loss-burst", ...).
	Kind string
	// At is the simulated time the trigger fired.
	At time.Duration
	// Duration is how long the fault holds before restoration; 0 means the
	// fault is permanent for the rest of the run.
	Duration time.Duration
	// Restored marks the paired recovery event of a transient fault.
	Restored bool
}

// ExperimentFinished is the terminal event, emitted exactly once per
// experiment (RunExperiment or RunSingleStage), whatever the outcome.
type ExperimentFinished struct {
	Target string
	// Result is the experiment outcome; nil when the experiment failed
	// before producing one (registration failure), in which case Err is
	// set. A canceled experiment carries its partial Result here with the
	// interrupted stage tagged VerdictAborted.
	Result *Result
	// Err is the failure message ("" on success).
	Err string
}

func (StageStarted) event()       {}
func (ScenarioApplied) event()    {}
func (FaultInjected) event()      {}
func (EpochCompleted) event()     {}
func (MeasurersReserved) event()  {}
func (CheckPhaseEntered) event()  {}
func (ExperimentFinished) event() {}

// RenderEvent renders one event as the canonical human-readable progress
// line — the single renderer behind LogObserver and any CLI that prints
// the stream. ok is false for event types with no line (none today) and
// unknown events. The per-epoch, check-phase and measurer lines keep their
// legacy logf-era wording; the remaining event types gained lines when the
// renderer was unified.
func RenderEvent(ev Event) (line string, ok bool) {
	switch e := ev.(type) {
	case StageStarted:
		return fmt.Sprintf("stage %v started at t=%v", e.Stage, e.At), true
	case EpochCompleted:
		return fmt.Sprintf("stage %v epoch %d (%v): crowd=%d sched=%d recv=%d q%.0f=%v median=%v",
			e.Stage, e.Epoch, e.Kind, e.Crowd, e.Scheduled, e.Received,
			e.Quantile*100, e.NormQuantile, e.NormMedian), true
	case CheckPhaseEntered:
		return fmt.Sprintf("stage %v: crowd %d exceeded θ; entering check phase", e.Stage, e.Crowd), true
	case MeasurersReserved:
		return fmt.Sprintf("reserved %d measurer clients for %s", e.Clients, e.URL), true
	case ScenarioApplied:
		return fmt.Sprintf("scenario %q active: %s", e.Name, strings.Join(e.Effects, ", ")), true
	case FaultInjected:
		if e.Restored {
			return fmt.Sprintf("scenario %q: fault %s restored at t=%v", e.Scenario, e.Kind, e.At), true
		}
		if e.Duration > 0 {
			return fmt.Sprintf("scenario %q: fault %s injected at t=%v for %v",
				e.Scenario, e.Kind, e.At, e.Duration), true
		}
		return fmt.Sprintf("scenario %q: fault %s injected at t=%v", e.Scenario, e.Kind, e.At), true
	case ExperimentFinished:
		if e.Err != "" {
			return fmt.Sprintf("experiment on %s failed: %s", e.Target, e.Err), true
		}
		if e.Result != nil {
			return fmt.Sprintf("experiment on %s finished: %s", e.Target, verdictLine(e.Result)), true
		}
		return fmt.Sprintf("experiment on %s finished", e.Target), true
	}
	return "", false
}

// verdictLine compacts a result into "Base=Stopped@20 SmallQuery=NoStop".
func verdictLine(r *Result) string {
	if len(r.Stages) == 0 {
		return "no stages"
	}
	parts := make([]string, 0, len(r.Stages))
	for _, sr := range r.Stages {
		p := fmt.Sprintf("%v=%v", sr.Stage, sr.Verdict)
		if sr.Verdict == VerdictStopped {
			p = fmt.Sprintf("%s@%d", p, sr.StoppingCrowd)
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, " ")
}

// LogObserver adapts RenderEvent to a logf sink: every event with a line
// is printed. Two informational lines of the pre-event API ("registered N
// active clients" and "check phase failed at crowd N; progressing") have
// no corresponding event and are not printed.
func LogObserver(logf func(string, ...any)) Observer {
	if logf == nil {
		return nil
	}
	return func(ev Event) {
		if line, ok := RenderEvent(ev); ok {
			logf("%s", line)
		}
	}
}
