package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"mfc/internal/content"
	"mfc/internal/rng"
)

// Coordinator orchestrates MFC experiments over a Platform (Figure 1).
type Coordinator struct {
	cfg      Config
	platform Platform
	observe  Observer
	// rng draws crowd membership; a fixed seed keeps every experiment
	// reproducible.
	rng *rand.Rand

	// pool holds the crowd-eligible clients in registration order.
	pool     []member
	epochSeq int

	// measurers[i] holds the clients reserved for Config.Measurers[i]
	// (§6 extension).
	measurers [][]Client
}

// member is one crowd-eligible client and what the coordinator schedules
// it by.
type member struct {
	cl   Client
	ctrl time.Duration // T_coord, measured at registration
	rtt  time.Duration // T_target, measured in this stage's delay computation
	req  Request       // this stage's request (O_i)
}

// seed1 is the coordinator's source as seeded, copied by every New.
var seed1 = rng.New(1)

// New builds a coordinator over a platform. observe, if non-nil, receives
// every event synchronously on the coordinator's goroutine.
func New(p Platform, cfg Config, observe Observer) *Coordinator {
	src := *seed1
	return &Coordinator{cfg: cfg.withDefaults(), platform: p, observe: observe, rng: rand.New(&src)}
}

// emit delivers one event to the observer, if any.
func (c *Coordinator) emit(ev Event) {
	if c.observe != nil {
		c.observe(ev)
	}
}

// canceled reports whether the run context has been canceled. The
// coordinator only looks at epoch boundaries, so a cancellation lands
// between epochs, never mid-measurement.
func canceled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// register performs the client-register step: collect active clients and
// their control RTTs, enforcing the MinClients rule.
func (c *Coordinator) register() error {
	clients, err := c.platform.ActiveClients()
	if err != nil {
		return fmt.Errorf("core: listing active clients: %w", err)
	}
	c.pool = make([]member, 0, len(clients))
	for _, cl := range clients {
		rtt, err := cl.ControlRTT()
		if err != nil {
			continue // unresponsive client: drop
		}
		c.pool = append(c.pool, member{cl: cl, ctrl: rtt})
	}
	if len(c.pool) < c.cfg.MinClients {
		return fmt.Errorf("%w: %d < %d", ErrTooFewClients, len(c.pool), c.cfg.MinClients)
	}
	return nil
}

// stageRequests assigns each pool member its per-stage request (O_i),
// following §2.2.2: Base = HEAD of the base page; Large Object = the same
// large object for everyone; Small Query = a unique dynamic object per
// client when available, else the same one.
func (c *Coordinator) stageRequests(stage Stage, prof *content.Profile) error {
	switch stage {
	case StageBase:
		for i := range c.pool {
			c.pool[i].req = Request{Method: "HEAD", URL: prof.BaseURL}
		}
	case StageLargeObject:
		if !prof.HasLargeObject() {
			return ErrStageUnavailable
		}
		for i := range c.pool {
			c.pool[i].req = Request{Method: "GET", URL: prof.LargeObjects[0].URL}
		}
	case StageSmallQuery:
		if !prof.HasSmallQuery() {
			return ErrStageUnavailable
		}
		for i := range c.pool {
			c.pool[i].req = Request{Method: "GET", URL: prof.SmallQueries[i%len(prof.SmallQueries)].URL}
		}
	default:
		return fmt.Errorf("core: unknown stage %v", stage)
	}
	return nil
}

// delayComputation has every pool member measure its target RTT and the
// base response time of its stage request, sequentially so measurements
// do not interfere (§2.2.3). A member that cannot reach the target leaves
// the pool.
func (c *Coordinator) delayComputation() {
	live := c.pool[:0]
	for _, m := range c.pool {
		rtt, err := m.cl.MeasureTarget(m.req)
		if err != nil {
			continue
		}
		m.rtt = rtt
		live = append(live, m)
	}
	c.pool = live
}

// Run registers the clients, then runs stages in order against the target
// (the client-visible host name): Stages for the paper's full experiment,
// one stage for the single-category mode the §5 population studies and the
// campaign engine use. The profile comes from the platform-specific
// profiling crawl (content.Site.Profile for simulations, content.Crawl
// over liveplat.HTTPFetcher for live sites) or from a cooperating operator.
//
// Cancellation is honored at epoch boundaries: when ctx is canceled the
// in-progress stage returns with VerdictAborted, later stages do not run,
// and Run returns the partial Result together with ctx's error. The
// terminal ExperimentFinished event is emitted exactly once, whatever the
// outcome.
func (c *Coordinator) Run(ctx context.Context, target string, stages []Stage, prof *content.Profile) (res *Result, err error) {
	defer func() { c.emit(ExperimentFinished{Target: target, Result: res, Err: errString(err)}) }()
	if prof == nil {
		return nil, fmt.Errorf("core: nil profile for target %s", target)
	}
	// An epoch's measurer medians are keyed by URL: two measurers of one
	// URL would reserve two groups of clients but report one median.
	for i, m := range c.cfg.Measurers {
		for j := 0; j < i; j++ {
			if c.cfg.Measurers[j].URL == m.URL {
				return nil, fmt.Errorf("core: measurers %d and %d share URL %s", j, i, m.URL)
			}
		}
	}
	if err := c.register(); err != nil {
		return nil, err
	}
	res = &Result{Target: target}
	for _, stage := range stages {
		res.Stages = append(res.Stages, c.runStage(ctx, stage, prof))
		if canceled(ctx) {
			return res, ctx.Err()
		}
	}
	return res, nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// runStage executes one MFC stage over the registered clients and returns
// its result. A canceled ctx aborts at the next epoch boundary with
// VerdictAborted.
func (c *Coordinator) runStage(ctx context.Context, stage Stage, prof *content.Profile) *StageResult {
	clock := c.platform.Clock()
	sr := &StageResult{
		Stage:     stage,
		Threshold: c.cfg.Threshold,
		Quantile:  c.cfg.Quantile(stage),
		Started:   clock.Now(),
	}
	c.emit(StageStarted{Stage: stage, At: sr.Started})
	if err := c.stageRequests(stage, prof); err != nil {
		sr.Verdict = VerdictUnavailable
		return sr
	}
	c.reserveMeasurers()
	c.delayComputation()
	if len(c.pool) < c.cfg.MinClients {
		sr.Verdict = VerdictAborted
		return sr
	}

	defer func() { sr.Elapsed = clock.Now() - sr.Started }()

	for crowd := c.cfg.Step; crowd <= c.cfg.MaxCrowd; crowd += c.cfg.Step {
		if canceled(ctx) {
			sr.Verdict = VerdictAborted
			return sr
		}
		if crowd > len(c.pool) {
			break // fewer clients available than the configured maximum
		}
		er := c.runEpoch(stage, sr, crowd, EpochRamp)
		if !er.Exceeded {
			continue
		}
		if crowd < minSignificant {
			// Too few participants for a statistically meaningful quantile.
			continue
		}
		if !c.cfg.CheckPhase {
			sr.Verdict = VerdictStopped
			sr.StoppingCrowd = crowd
			return sr
		}
		// Check phase: N-1, repeat N, N+1; any confirmation terminates.
		c.emit(CheckPhaseEntered{Stage: stage, Crowd: crowd})
		checks := []struct {
			kind  EpochKind
			crowd int
		}{
			{EpochCheckMinus, crowd - 1},
			{EpochCheckRepeat, crowd},
			{EpochCheckPlus, crowd + 1},
		}
		for _, ch := range checks {
			if canceled(ctx) {
				sr.Verdict = VerdictAborted
				return sr
			}
			if ch.crowd < 1 || ch.crowd > len(c.pool) {
				continue
			}
			cer := c.runEpoch(stage, sr, ch.crowd, ch.kind)
			if cer.Exceeded {
				sr.Verdict = VerdictStopped
				sr.StoppingCrowd = crowd
				return sr
			}
		}
	}
	sr.Verdict = VerdictNoStop
	return sr
}

// runEpoch schedules one synchronized crowd, waits, collects, and appends
// the epoch result.
func (c *Coordinator) runEpoch(stage Stage, sr *StageResult, crowd int, kind EpochKind) *EpochResult {
	clock := c.platform.Clock()
	c.epochSeq++
	epoch := c.epochSeq

	crowd = min(crowd, len(c.pool))
	members := c.pickCrowd(crowd)

	// Compute the common arrival instant T: past the largest lead time
	// among members, plus a guard (Figure 2 uses a flat 15s in validation;
	// the guard keeps simulations fast while preserving ordering).
	now := clock.Now()
	maxLead := time.Duration(0)
	for _, m := range members {
		maxLead = max(maxLead, m.leadTime())
	}
	arriveAt := now + maxLead + c.cfg.ScheduleGuard

	// Fire commands. With staggering, arrivals are spaced Stagger apart
	// (§6: "the target sees 1 request every m milliseconds").
	scheduled := 0
	staggerOffset := time.Duration(0)
	for _, m := range members {
		at := arriveAt + staggerOffset
		staggerOffset += max(c.cfg.Stagger, 0)
		burst := make([]Request, c.cfg.MultiRequest)
		for j := range burst {
			burst[j] = m.req
		}
		m.cl.Fire(epoch, at, burst, c.cfg.RequestTimeout)
		scheduled += len(burst)
	}
	c.fireMeasurers(epoch, arriveAt)

	// Wait for the latest arrival plus the full timeout budget, then poll.
	wait := arriveAt - now + c.cfg.RequestTimeout + staggerOffset
	clock.Sleep(wait)

	var samples []Sample
	for _, m := range members {
		ss, ok := m.cl.Collect(epoch)
		if !ok {
			continue // poll lost (UDP semantics)
		}
		samples = append(samples, ss...)
	}

	er := EpochResult{
		Index:           epoch,
		Kind:            kind,
		Crowd:           crowd,
		Scheduled:       scheduled,
		Received:        len(samples),
		NormQuantile:    detectionQuantileOf(samples, c.cfg.Quantile(stage), c.cfg.RequestTimeout),
		NormMedian:      quantileOf(samples, 0.5),
		Spread90:        spread90(samples),
		ArriveAt:        arriveAt,
		Done:            clock.Now(),
		MeasurerMedians: c.measurerMedians(epoch),
	}
	for _, s := range samples {
		if s.Err != "" {
			er.Errors++
		}
	}
	er.Exceeded = len(samples) > 0 && er.NormQuantile > c.cfg.Threshold
	if c.cfg.KeepSamples {
		er.Samples = samples
	}
	sr.Epochs = append(sr.Epochs, er)
	sr.TotalRequests += scheduled
	if er.Exceeded && sr.FirstExceed == 0 {
		sr.FirstExceed = crowd
	}
	if c.observe != nil {
		c.observe(EpochCompleted{
			Stage:        stage,
			Epoch:        epoch,
			Kind:         kind,
			Crowd:        crowd,
			Scheduled:    scheduled,
			Received:     len(samples),
			Errors:       er.Errors,
			Quantile:     c.cfg.Quantile(stage),
			NormQuantile: er.NormQuantile,
			NormMedian:   er.NormMedian,
			Exceeded:     er.Exceeded,
			At:           er.Done,
		})
	}

	// Inter-epoch gap.
	clock.Sleep(c.cfg.EpochGap)
	return &sr.Epochs[len(sr.Epochs)-1]
}

// measurerReplicas is how many reserved clients issue each measurer request
// per epoch; the median of their observations is recorded.
const measurerReplicas = 3

// reserveMeasurers takes measurerReplicas clients per configured measurer
// request out of the crowd-eligible pool and baselines them against their
// own request (§6). Candidates come from the tail, so the crowd keeps its
// head ordering, and none below MinClients is examined; a candidate that
// fails the baseline stays in the pool where it was. Idempotent across
// stages: reserved clients stay reserved.
func (c *Coordinator) reserveMeasurers() {
	if len(c.cfg.Measurers) == 0 || c.measurers != nil {
		return
	}
	c.measurers = make([][]Client, len(c.cfg.Measurers))
	next := len(c.pool) - 1
	for g, mreq := range c.cfg.Measurers {
		for ; len(c.measurers[g]) < measurerReplicas && next >= c.cfg.MinClients; next-- {
			cl := c.pool[next].cl
			if _, err := cl.MeasureTarget(mreq); err == nil {
				c.measurers[g] = append(c.measurers[g], cl)
				c.pool = slices.Delete(c.pool, next, next+1)
			}
		}
		c.emit(MeasurersReserved{URL: mreq.URL, Clients: len(c.measurers[g])})
	}
}

// fireMeasurers schedules every measurer client's request to arrive with
// the epoch's crowd.
func (c *Coordinator) fireMeasurers(epoch int, arriveAt time.Duration) {
	for g, clients := range c.measurers {
		for _, cl := range clients {
			cl.Fire(epoch, arriveAt, []Request{c.cfg.Measurers[g]}, c.cfg.RequestTimeout)
		}
	}
}

// measurerMedians polls the measurer clients for epoch and returns the
// median normalized response time per measurer URL; nil without
// measurers.
func (c *Coordinator) measurerMedians(epoch int) map[string]time.Duration {
	if len(c.measurers) == 0 {
		return nil
	}
	out := make(map[string]time.Duration, len(c.measurers))
	for g, clients := range c.measurers {
		var samples []Sample
		for _, cl := range clients {
			if ss, ok := cl.Collect(epoch); ok {
				samples = append(samples, ss...)
			}
		}
		if len(samples) > 0 {
			out[c.cfg.Measurers[g].URL] = quantileOf(samples, 0.5)
		}
	}
	return out
}

// leadTime is how far ahead of the arrival instant the command to this
// client must be sent: 0.5·T_coord (command propagation) + 1.5·T_target
// (TCP handshake up to the first request byte), per §2.2.4.
func (m *member) leadTime() time.Duration {
	return m.ctrl/2 + m.rtt*3/2
}

// pickCrowd selects n distinct pool members uniformly at random (§2.3:
// random participation isolates the effect of crowd size from
// client-local conditions).
func (c *Coordinator) pickCrowd(n int) []member {
	idx := c.rng.Perm(len(c.pool))
	members := make([]member, n)
	for i := range members {
		members[i] = c.pool[idx[i]]
	}
	return members
}
