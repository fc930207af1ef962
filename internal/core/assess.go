package core

import (
	"fmt"
	"strings"
)

// Subsystem names the server-side sub-systems MFC can distinguish (§3.3:
// inferences are reliable at sub-system granularity, covering both the
// hardware and software components of each).
type Subsystem int

const (
	// SubsystemHTTP is basic request handling: worker pool + parse path.
	SubsystemHTTP Subsystem = iota
	// SubsystemBackend is the back-end data-processing path: database,
	// query execution, dynamic-content interface.
	SubsystemBackend
	// SubsystemBandwidth is the outbound access link.
	SubsystemBandwidth
)

func (s Subsystem) String() string {
	switch s {
	case SubsystemHTTP:
		return "http-processing"
	case SubsystemBackend:
		return "backend-processing"
	case SubsystemBandwidth:
		return "access-bandwidth"
	default:
		return fmt.Sprintf("Subsystem(%d)", int(s))
	}
}

func subsystemFor(stage Stage) Subsystem {
	switch stage {
	case StageSmallQuery:
		return SubsystemBackend
	case StageLargeObject:
		return SubsystemBandwidth
	default:
		return SubsystemHTTP
	}
}

// Finding is one sub-system conclusion.
type Finding struct {
	Subsystem Subsystem
	Stage     Stage
	// Constrained reports whether a confirmed degradation was found.
	Constrained bool
	// At is the stopping crowd size when constrained; otherwise the largest
	// probed crowd.
	At int
	// Note is a human-readable explanation.
	Note string
}

// DDoSGrade summarizes the §6 vulnerability reading.
type DDoSGrade int

const (
	// DDoSUnknown: insufficient stage coverage to grade.
	DDoSUnknown DDoSGrade = iota
	// DDoSResilient: no stage stopped.
	DDoSResilient
	// DDoSModerate: some stage stopped, but only at substantial volumes.
	DDoSModerate
	// DDoSHighlyVulnerable: a cheap request type (base or small query)
	// degrades the server at a small crowd while bandwidth holds — the
	// paper's marker for trivially mountable application-level attacks.
	DDoSHighlyVulnerable
)

func (g DDoSGrade) String() string {
	switch g {
	case DDoSResilient:
		return "resilient"
	case DDoSModerate:
		return "moderate"
	case DDoSHighlyVulnerable:
		return "highly-vulnerable"
	default:
		return "unknown"
	}
}

// Assessment is the operator-facing report derived from a Result.
type Assessment struct {
	Target   string
	Findings []Finding
	// DDoS is the application-level DDoS vulnerability reading (§6).
	DDoS DDoSGrade
	// DDoSNote explains the grade.
	DDoSNote string
	// SoftwareArtifact flags the §4.2 Univ-2 pattern: all stages stopping
	// in a narrow crowd band points at request-handling limits (thread
	// caps, buffer exhaustion) rather than any single hardware resource.
	SoftwareArtifact bool
}

// Assess converts raw stage results into sub-system findings, the DDoS
// grade, and the software-artifact heuristic.
func Assess(r *Result) *Assessment {
	a := &Assessment{Target: r.Target}
	stops := make(map[Stage]int)
	probed := make(map[Stage]int)
	for _, sr := range r.Stages {
		f := Finding{Subsystem: subsystemFor(sr.Stage), Stage: sr.Stage}
		switch sr.Verdict {
		case VerdictStopped:
			f.Constrained = true
			f.At = sr.StoppingCrowd
			f.Note = fmt.Sprintf("confirmed >%v degradation at %d simultaneous requests", sr.Threshold, sr.StoppingCrowd)
			stops[sr.Stage] = sr.StoppingCrowd
		case VerdictNoStop:
			if e := sr.LastRamp(); e != nil {
				f.At = e.Crowd
			}
			f.Note = fmt.Sprintf("unconstrained up to %d simultaneous requests", f.At)
			probed[sr.Stage] = f.At
		case VerdictUnavailable:
			f.Note = "stage unavailable: no matching content on target"
		case VerdictAborted:
			f.Note = "aborted: too few clients"
		}
		a.Findings = append(a.Findings, f)
	}

	// Software-artifact heuristic: >= 2 stages stopped within 25% of one
	// another (Univ-2's 110–150 band across all stages).
	var stopSizes []int
	for _, v := range stops {
		stopSizes = append(stopSizes, v)
	}
	if len(stopSizes) >= 2 {
		lo, hi := stopSizes[0], stopSizes[0]
		for _, v := range stopSizes {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if lo > 0 && float64(hi-lo) <= 0.25*float64(hi) {
			a.SoftwareArtifact = true
		}
	}

	// DDoS grade (§6): bandwidth strong + cheap-request stage weak at low
	// volume = highly vulnerable to application-level floods.
	bwStop, bwStopped := stops[StageLargeObject]
	qStop, qStopped := stops[StageSmallQuery]
	bStop, bStopped := stops[StageBase]
	switch {
	case !bwStopped && !qStopped && !bStopped && len(probed) > 0:
		a.DDoS = DDoSResilient
		a.DDoSNote = "no stage degraded at the probed volumes"
	case !bwStopped && (qStopped && qStop <= 50 || bStopped && bStop <= 50):
		a.DDoS = DDoSHighlyVulnerable
		weak := "small-query"
		at := qStop
		if !qStopped || (bStopped && bStop < qStop) {
			weak = "base-request"
			at = bStop
		}
		a.DDoSNote = fmt.Sprintf(
			"access link holds while the %s path degrades at only %d requests: "+
				"trivially exploitable by an application-level flood", weak, at)
	case bwStopped || qStopped || bStopped:
		a.DDoS = DDoSModerate
		parts := []string{}
		if bStopped {
			parts = append(parts, fmt.Sprintf("base@%d", bStop))
		}
		if qStopped {
			parts = append(parts, fmt.Sprintf("query@%d", qStop))
		}
		if bwStopped {
			parts = append(parts, fmt.Sprintf("bandwidth@%d", bwStop))
		}
		a.DDoSNote = "degradations found: " + strings.Join(parts, ", ")
	default:
		a.DDoS = DDoSUnknown
		a.DDoSNote = "no stage produced a verdict"
	}
	return a
}

// String renders the assessment as an operator-facing report.
func (a *Assessment) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Assessment of %s\n", a.Target)
	for _, f := range a.Findings {
		status := "OK"
		if f.Constrained {
			status = "CONSTRAINED"
		}
		fmt.Fprintf(&b, "  %-20s [%s] %s\n", f.Subsystem, status, f.Note)
	}
	if a.SoftwareArtifact {
		b.WriteString("  note: all stages stop in a narrow band — suspect software configuration\n" +
			"        (thread limits, buffer exhaustion) rather than a single hardware resource\n")
	}
	fmt.Fprintf(&b, "  ddos-vulnerability: %s (%s)\n", a.DDoS, a.DDoSNote)
	return b.String()
}

// CompareStages returns the relative-provisioning note the paper's Univ-3
// operators valued: which sub-system is the weakest and by what margin.
func CompareStages(r *Result) string {
	type entry struct {
		stage Stage
		stop  int // 0 = NoStop
	}
	var entries []entry
	for _, sr := range r.Stages {
		if sr.Verdict == VerdictStopped {
			entries = append(entries, entry{sr.Stage, sr.StoppingCrowd})
		} else if sr.Verdict == VerdictNoStop {
			entries = append(entries, entry{sr.Stage, 0})
		}
	}
	if len(entries) == 0 {
		return "no stages completed"
	}
	weakest, weakestStop := Stage(-1), int(^uint(0)>>1)
	for _, e := range entries {
		if e.stop != 0 && e.stop < weakestStop {
			weakest, weakestStop = e.stage, e.stop
		}
	}
	if weakest == Stage(-1) {
		return "all probed sub-systems unconstrained"
	}
	return fmt.Sprintf("weakest sub-system: %v (%v), degrading at %d simultaneous requests",
		subsystemFor(weakest), weakest, weakestStop)
}
