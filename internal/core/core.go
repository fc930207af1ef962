// Package core implements the paper's contribution: the Mini-Flash Crowd
// (MFC) profiling algorithm. A coordinator directs an increasing number of
// distributed clients to issue synchronized HTTP requests of a specific
// category at a target, watches a quantile of the normalized response time,
// verifies threshold crossings with a check phase, and reports the stopping
// crowd size per stage — from which per-sub-system provisioning constraints
// are inferred.
//
// The algorithm is written against the Platform abstraction so the same
// coordinator drives the discrete-event simulator (internal/websim via the
// sim platform), in-process goroutine crowds issuing real net/http requests,
// and remote UDP-controlled agents (internal/liveplat).
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Stage identifies one MFC request category (§2.2.2).
type Stage int

const (
	// StageBase issues HEAD requests for the base page, estimating basic
	// HTTP request processing.
	StageBase Stage = iota
	// StageSmallQuery issues dynamic-object requests (< 15 KB responses),
	// exercising the back-end data-processing sub-system.
	StageSmallQuery
	// StageLargeObject issues requests for the same >= 100 KB object,
	// exercising the outbound access link.
	StageLargeObject
)

// Stages lists the standard three stages in the order the paper runs them.
var Stages = []Stage{StageBase, StageSmallQuery, StageLargeObject}

func (s Stage) String() string {
	switch s {
	case StageBase:
		return "Base"
	case StageSmallQuery:
		return "SmallQuery"
	case StageLargeObject:
		return "LargeObject"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// The paper's fixed detection rules (§2.2.2): a crowd below 15 is too
// small for a trusted quantile, so those ramp epochs always progress; and
// the Base and Small Query stages need half the clients ("the median") to
// observe a >θ increase.
const (
	minSignificant  = 15
	baseObserveFrac = 0.50
)

// Config tunes an MFC experiment. The zero value is NOT usable; call
// DefaultConfig and adjust.
type Config struct {
	// Threshold is θ: the normalized response-time increase that counts as
	// perceptible degradation (paper: 100ms, 250ms for tolerant operators).
	Threshold time.Duration

	// Step is the crowd-size increment between epochs (paper: 5 or 10).
	Step int
	// MaxCrowd caps the crowd size; reaching it without a confirmed
	// degradation yields the NoStop verdict.
	MaxCrowd int

	// MinClients aborts the experiment when fewer distinct clients are
	// available (paper: 50), ensuring wide-area representativeness.
	MinClients int

	// EpochGap separates successive epochs (paper: ~10s).
	EpochGap time.Duration
	// RequestTimeout kills a client request and records this value as its
	// response time (paper: 10s).
	RequestTimeout time.Duration
	// ScheduleGuard pads the common arrival instant beyond the largest
	// client lead time, absorbing control jitter.
	ScheduleGuard time.Duration

	// LargeObserveFrac is the fraction of clients that must observe a >θ
	// increase for the Large Object stage (paper: 0.90 — "we require that
	// a larger fraction of the clients, specifically 90% of them, observe
	// >θ"), which discounts shared network bottlenecks far from the
	// target: congestion on a middle link shared by some clients cannot
	// trip a rule that demands nearly all of them degrade. The Base and
	// Small Query stages use the median (baseObserveFrac). The detection
	// statistic is the (1−fraction) quantile of normalized response times.
	LargeObserveFrac float64

	// CheckPhase enables the N-1/N/N+1 confirmation epochs. Disabling it is
	// an ablation: crossings are accepted immediately.
	CheckPhase bool

	// MultiRequest is the MFC-mr extension (§4.1): each client opens this
	// many parallel connections with the same request. 1 = standard MFC.
	MultiRequest int

	// Stagger is the staggered-MFC extension (§6): when > 0, client
	// arrivals are spaced by this interval instead of synchronized.
	Stagger time.Duration
	// StaggerDist selects the inter-arrival distribution for staggered
	// runs (§6: "other non-uniform distributions of inter-arrival times
	// are also easy to implement"). Ignored when Stagger is zero.
	StaggerDist StaggerDist

	// Measurers is the §6 measurer extension: requests that designated
	// non-crowd clients issue alongside every epoch, probing how the
	// crowd's workload affects *other* request types (e.g. how a
	// bandwidth-intensive crowd impacts a database-intensive query).
	// Measurer clients are reserved out of the crowd-eligible pool.
	Measurers []Request
	// MeasurerReplicas is how many reserved clients issue each measurer
	// request per epoch (default 3; the median of their observations is
	// recorded).
	MeasurerReplicas int

	// KeepSamples retains every per-request sample in the epoch results
	// (memory-heavy; used by the synchronization analyses).
	KeepSamples bool

	// Rand drives crowd selection; nil gets a fixed-seed source so
	// experiments are reproducible by default.
	Rand *rand.Rand
}

// DefaultConfig returns the paper's standard parameters: θ=100ms, step 5 up
// to 50 clients, median/90th-percentile detection, check phase on, 10s
// timeouts.
func DefaultConfig() Config {
	return Config{
		Threshold:        100 * time.Millisecond,
		Step:             5,
		MaxCrowd:         50,
		MinClients:       50,
		EpochGap:         10 * time.Second,
		RequestTimeout:   10 * time.Second,
		ScheduleGuard:    500 * time.Millisecond,
		LargeObserveFrac: 0.90,
		CheckPhase:       true,
		MultiRequest:     1,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Threshold <= 0 {
		c.Threshold = d.Threshold
	}
	if c.Step <= 0 {
		c.Step = d.Step
	}
	if c.MaxCrowd <= 0 {
		c.MaxCrowd = d.MaxCrowd
	}
	if c.MinClients < 0 {
		c.MinClients = 0
	}
	if c.EpochGap <= 0 {
		c.EpochGap = d.EpochGap
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = d.RequestTimeout
	}
	if c.ScheduleGuard <= 0 {
		c.ScheduleGuard = d.ScheduleGuard
	}
	if c.LargeObserveFrac <= 0 || c.LargeObserveFrac >= 1 {
		c.LargeObserveFrac = d.LargeObserveFrac
	}
	if c.MultiRequest <= 0 {
		c.MultiRequest = 1
	}
	if c.MeasurerReplicas <= 0 {
		c.MeasurerReplicas = 3
	}
	if c.Rand == nil {
		c.Rand = rand.New(rand.NewSource(1))
	}
	return c
}

// Quantile returns the detection quantile for a stage under this config:
// the (1 − observe-fraction) quantile must exceed θ for the required
// fraction of clients to have observed the degradation.
func (c Config) Quantile(s Stage) float64 {
	if s == StageLargeObject {
		return 1 - c.LargeObserveFrac
	}
	return 1 - baseObserveFrac
}

// StaggerDist enumerates staggered-arrival inter-arrival distributions.
type StaggerDist int

const (
	// StaggerUniform spaces arrivals exactly Stagger apart (the paper's "1
	// request every m milliseconds").
	StaggerUniform StaggerDist = iota
	// StaggerExponential draws exponential inter-arrivals with mean
	// Stagger — a Poisson arrival process, the shape of organic traffic.
	StaggerExponential
)

func (d StaggerDist) String() string {
	if d == StaggerExponential {
		return "exponential"
	}
	return "uniform"
}

// Request is one HTTP request an MFC client issues.
type Request struct {
	Method string // "GET" or "HEAD"
	URL    string
}

// Sample is one client's observation for one request in one epoch.
type Sample struct {
	Client   string
	URL      string
	Status   int   // HTTP status; 0 on error/timeout
	Bytes    int64 // body bytes received
	Resp     time.Duration
	Base     time.Duration // this client's unloaded response time for URL
	Err      string        // "" on success; "ERR" on timeout per the paper
	ArriveAt time.Duration // request arrival instant at the target, if known
}

// Normalized returns the normalized response time: observed minus base.
func (s Sample) Normalized() time.Duration { return s.Resp - s.Base }

// ErrorClass reports whether this sample is an error-class response for
// stop detection: a timeout or transport failure (Err set, no status), a
// rejected request (429), or a server failure (5xx). Other 4xx codes —
// notably 404 — are content structure, not load, and stay out of
// detection: missing content is the Unavailable verdict's territory.
func (s Sample) ErrorClass() bool {
	return (s.Err != "" && s.Status == 0) || s.Status == 429 || s.Status >= 500
}

// Errors the coordinator reports.
var (
	// ErrTooFewClients aborts the experiment per the MinClients rule.
	ErrTooFewClients = errors.New("core: fewer than the required minimum of distinct clients responded")
	// ErrStageUnavailable marks a stage whose request category is missing
	// from the target's profile (no large object / no small query found).
	ErrStageUnavailable = errors.New("core: target has no objects for this stage")
)
