package core

import (
	"context"
	"fmt"
	"time"

	"mfc/internal/content"
)

// Coordinator orchestrates MFC experiments over a Platform (Figure 1).
type Coordinator struct {
	cfg      Config
	platform Platform
	observe  Observer

	clients   []Client
	ctrlRTT   map[string]time.Duration
	baselines map[string]Baseline // per client, per current stage
	epochSeq  int

	// measurers maps a measurer request URL to the reserved clients that
	// issue it each epoch (§6 extension).
	measurers map[string][]Client
}

// Option configures a Coordinator at construction.
type Option func(*Coordinator)

// WithObserver attaches an event observer. Multiple observers compose in
// registration order.
func WithObserver(o Observer) Option {
	return func(c *Coordinator) {
		if o == nil {
			return
		}
		if prev := c.observe; prev != nil {
			c.observe = func(ev Event) { prev(ev); o(ev) }
		} else {
			c.observe = o
		}
	}
}

// New builds a coordinator over a platform.
func New(p Platform, cfg Config, opts ...Option) *Coordinator {
	c := &Coordinator{cfg: cfg.withDefaults(), platform: p}
	for _, opt := range opts {
		opt(c)
	}
	return c
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
	c.clients = c.clients[:0]
	c.ctrlRTT = make(map[string]time.Duration, len(clients))
	for _, cl := range clients {
		rtt, err := cl.ControlRTT()
		if err != nil {
			continue // unresponsive client: drop
		}
		c.ctrlRTT[cl.ID()] = rtt
		c.clients = append(c.clients, cl)
	}
	if len(c.clients) < c.cfg.MinClients {
		return fmt.Errorf("%w: %d < %d", ErrTooFewClients, len(c.clients), c.cfg.MinClients)
	}
	return nil
}

// stageRequests assigns each client its per-stage request (O_i), following
// §2.2.2: Base = HEAD of the base page; Large Object = the same large
// object for everyone; Small Query = a unique dynamic object per client
// when available, else the same one.
func (c *Coordinator) stageRequests(stage Stage, prof *content.Profile) (map[string]Request, error) {
	reqs := make(map[string]Request, len(c.clients))
	switch stage {
	case StageBase:
		for _, cl := range c.clients {
			reqs[cl.ID()] = Request{Method: "HEAD", URL: prof.BaseURL}
		}
	case StageLargeObject:
		if !prof.HasLargeObject() {
			return nil, ErrStageUnavailable
		}
		obj := prof.LargeObjects[0]
		for _, cl := range c.clients {
			reqs[cl.ID()] = Request{Method: "GET", URL: obj.URL}
		}
	case StageSmallQuery:
		if !prof.HasSmallQuery() {
			return nil, ErrStageUnavailable
		}
		for i, cl := range c.clients {
			obj := prof.SmallQueries[i%len(prof.SmallQueries)]
			reqs[cl.ID()] = Request{Method: "GET", URL: obj.URL}
		}
	default:
		return nil, fmt.Errorf("core: unknown stage %v", stage)
	}
	return reqs, nil
}

// delayComputation has every client measure its target RTT and base
// response time, sequentially so measurements do not interfere (§2.2.3).
// Existing entries (e.g. measurer baselines) are preserved; crowd clients'
// entries are refreshed for the new stage.
func (c *Coordinator) delayComputation(reqs map[string]Request) {
	if c.baselines == nil {
		c.baselines = make(map[string]Baseline, len(c.clients))
	}
	live := c.clients[:0]
	for _, cl := range c.clients {
		bl, err := cl.MeasureTarget([]Request{reqs[cl.ID()]})
		if err != nil {
			continue // client cannot reach the target: drop for this stage
		}
		c.baselines[cl.ID()] = bl
		live = append(live, cl)
	}
	c.clients = live
}

// RunExperiment runs all three stages against the target (the
// client-visible host name). The profile comes from the platform-specific
// profiling crawl (content.Crawl over a SiteFetcher for simulations, over
// liveplat.HTTPFetcher for live sites) or from a cooperating operator.
//
// Cancellation is honored at epoch boundaries: when ctx is canceled the
// in-progress stage returns with VerdictAborted, later stages do not run,
// and RunExperiment returns the partial Result together with ctx's error.
// The terminal ExperimentFinished event is emitted exactly once, whatever
// the outcome.
func (c *Coordinator) RunExperiment(ctx context.Context, target string, prof *content.Profile) (*Result, error) {
	return c.run(ctx, target, Stages, prof)
}

// RunSingleStage runs exactly one stage as a complete experiment:
// registration, the stage, and the terminal ExperimentFinished event. It
// is the single-category entry point the §5 population studies and the
// campaign engine use. Like RunExperiment, cancellation yields the partial
// Result plus ctx's error.
func (c *Coordinator) RunSingleStage(ctx context.Context, target string, stage Stage, prof *content.Profile) (*Result, error) {
	return c.run(ctx, target, []Stage{stage}, prof)
}

// run is both entry points: register, run the stages in order until ctx
// is canceled, and emit ExperimentFinished exactly once.
func (c *Coordinator) run(ctx context.Context, target string, stages []Stage, prof *content.Profile) (res *Result, err error) {
	defer func() { c.emit(ExperimentFinished{Target: target, Result: res, Err: errString(err)}) }()
	if prof == nil {
		return nil, fmt.Errorf("core: nil profile for target %s", target)
	}
	if err := c.register(); err != nil {
		return nil, err
	}
	res = &Result{Target: target}
	for _, stage := range stages {
		res.Stages = append(res.Stages, c.RunStage(ctx, stage, prof))
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

// RunStage executes one MFC stage to completion and returns its result.
// The coordinator must have registered clients (RunExperiment does this;
// direct callers can use Register). A canceled ctx aborts at the next
// epoch boundary with VerdictAborted.
func (c *Coordinator) RunStage(ctx context.Context, stage Stage, prof *content.Profile) *StageResult {
	clock := c.platform.Clock()
	sr := &StageResult{
		Stage:     stage,
		Threshold: c.cfg.Threshold,
		Quantile:  c.cfg.Quantile(stage),
		Started:   clock.Now(),
	}
	c.emit(StageStarted{Stage: stage, At: sr.Started})
	if len(c.clients) == 0 {
		if err := c.register(); err != nil {
			sr.Verdict = VerdictAborted
			return sr
		}
	}
	reqs, err := c.stageRequests(stage, prof)
	if err != nil {
		sr.Verdict = VerdictUnavailable
		return sr
	}
	c.reserveMeasurers()
	c.delayComputation(reqs)
	if len(c.clients) < c.cfg.MinClients {
		sr.Verdict = VerdictAborted
		return sr
	}

	defer func() { sr.Elapsed = clock.Now() - sr.Started }()

	for crowd := c.cfg.Step; crowd <= c.cfg.MaxCrowd; crowd += c.cfg.Step {
		if canceled(ctx) {
			sr.Verdict = VerdictAborted
			return sr
		}
		if crowd > len(c.clients) {
			break // fewer clients available than the configured maximum
		}
		er := c.runEpoch(stage, sr, reqs, crowd, EpochRamp)
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
			if ch.crowd < 1 || ch.crowd > len(c.clients) {
				continue
			}
			cer := c.runEpoch(stage, sr, reqs, ch.crowd, ch.kind)
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
func (c *Coordinator) runEpoch(stage Stage, sr *StageResult, reqs map[string]Request, crowd int, kind EpochKind) *EpochResult {
	clock := c.platform.Clock()
	c.epochSeq++
	epoch := c.epochSeq

	crowd = min(crowd, len(c.clients))
	members := c.pickCrowd(crowd)

	// Compute the common arrival instant T: past the largest lead time
	// among members, plus a guard (Figure 2 uses a flat 15s in validation;
	// the guard keeps simulations fast while preserving ordering).
	now := clock.Now()
	maxLead := time.Duration(0)
	for _, cl := range members {
		lead := c.leadTime(cl)
		if lead > maxLead {
			maxLead = lead
		}
	}
	arriveAt := now + maxLead + c.cfg.ScheduleGuard

	// Fire commands. With staggering, arrivals are offset by the chosen
	// inter-arrival distribution (§6: "the target sees 1 request every m
	// milliseconds"; other distributions are supported).
	scheduled := 0
	staggerOffset := time.Duration(0)
	for _, cl := range members {
		at := arriveAt
		if c.cfg.Stagger > 0 {
			at += staggerOffset
			switch c.cfg.StaggerDist {
			case StaggerExponential:
				staggerOffset += time.Duration(c.cfg.Rand.ExpFloat64() * float64(c.cfg.Stagger))
			default:
				staggerOffset += c.cfg.Stagger
			}
		}
		rq := reqs[cl.ID()]
		burst := make([]Request, c.cfg.MultiRequest)
		for j := range burst {
			burst[j] = rq
		}
		cl.Fire(epoch, at, burst, c.cfg.RequestTimeout)
		scheduled += len(burst)
	}

	collectMeasurers := c.fireMeasurers(epoch, arriveAt)

	// Wait for the latest arrival plus the full timeout budget, then poll.
	wait := arriveAt - now + c.cfg.RequestTimeout + staggerOffset
	clock.Sleep(wait)

	var samples []Sample
	for _, cl := range members {
		ss, ok := cl.Collect(epoch)
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
		MeasurerMedians: collectMeasurers(),
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

// reserveMeasurers takes MeasurerReplicas clients per configured measurer
// request out of the crowd-eligible pool and baselines them against their
// own request (§6). Clients that fail the baseline are returned to the
// pool. Idempotent across stages: reserved clients stay reserved.
func (c *Coordinator) reserveMeasurers() {
	if len(c.cfg.Measurers) == 0 || c.measurers != nil {
		return
	}
	if c.baselines == nil {
		c.baselines = make(map[string]Baseline)
	}
	c.measurers = make(map[string][]Client, len(c.cfg.Measurers))
	for _, mreq := range c.cfg.Measurers {
		var picked []Client
		for len(picked) < c.cfg.MeasurerReplicas && len(c.clients) > c.cfg.MinClients {
			// Take from the tail so the crowd keeps its head ordering.
			cl := c.clients[len(c.clients)-1]
			c.clients = c.clients[:len(c.clients)-1]
			if bl, err := cl.MeasureTarget([]Request{mreq}); err == nil {
				c.baselines[cl.ID()] = bl
				picked = append(picked, cl)
			}
		}
		c.measurers[mreq.URL] = picked
		c.emit(MeasurersReserved{URL: mreq.URL, Clients: len(picked)})
	}
}

// fireMeasurers schedules every measurer client's request to arrive with
// the epoch's crowd, and returns a collector closure that computes the
// per-URL median normalized response time once the epoch is polled.
func (c *Coordinator) fireMeasurers(epoch int, arriveAt time.Duration) func() map[string]time.Duration {
	if len(c.measurers) == 0 {
		return func() map[string]time.Duration { return nil }
	}
	reqOf := make(map[string]Request, len(c.cfg.Measurers))
	for _, mreq := range c.cfg.Measurers {
		reqOf[mreq.URL] = mreq
	}
	for url, clients := range c.measurers {
		for _, cl := range clients {
			cl.Fire(epoch, arriveAt, []Request{reqOf[url]}, c.cfg.RequestTimeout)
		}
	}
	return func() map[string]time.Duration {
		out := make(map[string]time.Duration, len(c.measurers))
		for url, clients := range c.measurers {
			var samples []Sample
			for _, cl := range clients {
				if ss, ok := cl.Collect(epoch); ok {
					samples = append(samples, ss...)
				}
			}
			if len(samples) > 0 {
				out[url] = quantileOf(samples, 0.5)
			}
		}
		return out
	}
}

// Measurers returns the reserved measurer clients by URL (nil when the
// extension is off).
func (c *Coordinator) Measurers() map[string][]Client { return c.measurers }

// leadTime is how far ahead of the arrival instant the command to this
// client must be sent: 0.5·T_coord (command propagation) + 1.5·T_target
// (TCP handshake up to the first request byte), per §2.2.4.
func (c *Coordinator) leadTime(cl Client) time.Duration {
	ctrl := c.ctrlRTT[cl.ID()]
	bl := c.baselines[cl.ID()]
	return ctrl/2 + bl.TargetRTT*3/2
}

// pickCrowd selects n distinct clients uniformly at random (§2.3: random
// participation isolates the effect of crowd size from client-local
// conditions).
func (c *Coordinator) pickCrowd(n int) []Client {
	idx := c.cfg.Rand.Perm(len(c.clients))
	members := make([]Client, n)
	for i := 0; i < n; i++ {
		members[i] = c.clients[idx[i]]
	}
	return members
}

// Register exposes client registration for callers driving RunStage
// directly (tests, single-stage tools).
func (c *Coordinator) Register() error { return c.register() }

// Clients returns the registered clients (after Register).
func (c *Coordinator) Clients() []Client { return c.clients }
