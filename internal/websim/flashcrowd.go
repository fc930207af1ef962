package websim

import (
	"sort"
	"time"

	"mfc/internal/netsim"
	"mfc/internal/stats"
)

// FlashCrowdConfig describes an organic flash crowd: request arrivals ramp
// linearly from zero to PeakRate over RampUp, hold for Hold, then stop —
// the kind of surge §1 motivates (a news-site link, an annual sale).
type FlashCrowdConfig struct {
	// URL every visitor requests (flash crowds concentrate on one page).
	URL    string
	Method string // default GET

	PeakRate float64       // requests/sec at the top of the ramp
	RampUp   time.Duration // default 60s
	Hold     time.Duration // default 30s

	ClientRTT time.Duration // default 60ms
	ClientBW  float64       // default 1 MB/s
	Timeout   time.Duration // default 10s
}

func (c FlashCrowdConfig) withDefaults() FlashCrowdConfig {
	if c.Method == "" {
		c.Method = "GET"
	}
	if c.RampUp <= 0 {
		c.RampUp = 60 * time.Second
	}
	if c.Hold <= 0 {
		c.Hold = 30 * time.Second
	}
	if c.ClientRTT <= 0 {
		c.ClientRTT = 60 * time.Millisecond
	}
	if c.ClientBW <= 0 {
		c.ClientBW = 1e6
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	return c
}

// FlashSample records one flash-crowd request: the concurrency it met at
// the server and the response time it experienced.
type FlashSample struct {
	At         time.Duration
	Concurrent int // in-flight requests at arrival
	Resp       time.Duration
	Err        bool
}

// FlashCrowdResult aggregates a run.
type FlashCrowdResult struct {
	Samples []FlashSample
	// BaseResp is the unloaded response time measured before the ramp.
	BaseResp time.Duration
}

// RunFlashCrowd subjects srv to the configured surge and returns the
// per-request record. It runs inside the simulation's virtual time (the
// caller owns env.Run).
func RunFlashCrowd(env *netsim.Env, srv *Server, cfg FlashCrowdConfig) *FlashCrowdResult {
	res := &FlashCrowdResult{}
	ramp := NewRampArrivals(srv, "fc", cfg)
	ramp.OnDone = func(v *Visit, resp Response) {
		res.Samples = append(res.Samples, FlashSample{
			At:         v.At,
			Concurrent: v.Concurrent,
			Resp:       env.Now() - v.At,
			Err:        resp.Err != nil,
		})
	}
	env.Spawn("flashcrowd", &flashCrowd{res: res, ramp: ramp})
	return res
}

// flashCrowd is RunFlashCrowd's process: one unloaded baseline request,
// then the ramp.
type flashCrowd struct {
	res     *FlashCrowdResult
	ramp    *RampArrivals
	base    *Call // the baseline request, once started
	t0      time.Duration
	ramping bool
}

// Step implements netsim.Task.
func (fc *flashCrowd) Step(p *netsim.Proc) bool {
	if !fc.ramping {
		if fc.base == nil {
			fc.t0 = p.Now()
			fc.base = fc.ramp.srv.Start("fc-base", fc.ramp.request(fc.t0))
		}
		if fc.base.Step(p) {
			return true
		}
		fc.base.Finish()
		fc.res.BaseResp = p.Now() - fc.t0
		fc.ramping = true
	}
	return fc.ramp.Step(p)
}

// RampArrivals is the arrival process of an organic surge, as a netsim.Task
// (start it with Env.Spawn): after StartAt of idle time, visitors arrive
// with exponential gaps at a rate that climbs linearly from zero to
// PeakRate over RampUp, holds for Hold, then the process ends. Each arrival
// is a Visit. RunFlashCrowd and the scenario layer's cross-traffic are both
// this task.
type RampArrivals struct {
	// StartAt is idle time before the ramp begins.
	StartAt time.Duration
	// OnDone (may be nil) receives every visitor's response.
	OnDone func(*Visit, Response)

	srv     *Server
	tag     string // access-log tag; visitor processes are named tag+"-visitor"
	visitor string
	cfg     FlashCrowdConfig
	state   rampState
	stopped bool
	begun   time.Duration // when the ramp started
}

type rampState uint8

const (
	rampIdle    rampState = iota // not started
	rampBegin                    // StartAt elapsed (or skipped)
	rampArrival                  // an inter-arrival gap elapsed
)

// NewRampArrivals prepares the surge cfg describes (its defaults applied)
// against srv. With an empty cfg.URL the task ends without an arrival.
func NewRampArrivals(srv *Server, tag string, cfg FlashCrowdConfig) *RampArrivals {
	return &RampArrivals{srv: srv, tag: tag, visitor: tag + "-visitor", cfg: cfg.withDefaults()}
}

// Stop ends the arrival process at its next wakeup.
func (r *RampArrivals) Stop() { r.stopped = true }

// request is what a visitor arriving at `at` sends.
func (r *RampArrivals) request(at time.Duration) Request {
	return Request{
		Method: r.cfg.Method, URL: r.cfg.URL,
		ClientRTT: r.cfg.ClientRTT, ClientBW: r.cfg.ClientBW,
		Deadline: at + r.cfg.Timeout,
	}
}

// Step implements netsim.Task.
func (r *RampArrivals) Step(p *netsim.Proc) bool {
	env, cfg := p.Env(), &r.cfg
	switch r.state {
	case rampIdle:
		r.state = rampBegin
		if r.StartAt > 0 {
			return p.BeginSleep(r.StartAt)
		}
		fallthrough
	case rampBegin:
		if r.stopped || cfg.URL == "" {
			return false
		}
		r.begun = p.Now()
		r.state = rampArrival
	case rampArrival:
		if r.stopped {
			return false
		}
		env.Spawn(r.visitor, r.srv.NewVisit(r.tag, r.request(p.Now()), nil, r.OnDone))
	}
	el := p.Now() - r.begun
	if el >= cfg.RampUp+cfg.Hold {
		return false
	}
	// Instantaneous rate: linear ramp, then flat; never below 0.5 req/s so
	// the first gaps stay finite.
	rate := cfg.PeakRate
	if el < cfg.RampUp {
		rate = cfg.PeakRate * float64(el) / float64(cfg.RampUp)
	}
	if rate < 0.5 {
		rate = 0.5
	}
	gap := time.Duration(env.Rand().ExpFloat64() / rate * float64(time.Second))
	if gap > 2*time.Second {
		gap = 2 * time.Second
	}
	return p.BeginSleep(gap)
}

// DegradationPoint finds the smallest concurrency at which the median
// response-time increase over the baseline persistently exceeds θ: samples
// are bucketed by the concurrency they met, and the first bucket whose
// median normalized response exceeds θ — with every later bucket's median
// also above θ/2 (persistence, not a blip) — is returned. 0 means the
// crowd never degraded the server.
func (r *FlashCrowdResult) DegradationPoint(theta time.Duration, bucketWidth int) int {
	if bucketWidth <= 0 {
		bucketWidth = 5
	}
	buckets := map[int][]time.Duration{}
	for _, s := range r.Samples {
		b := s.Concurrent / bucketWidth
		norm := s.Resp - r.BaseResp
		if s.Err {
			// A refused connection or timeout returns quickly but is the
			// worst possible service; score it as a full timeout so error
			// storms register as degradation, not as fast responses.
			norm = 10 * time.Second
		}
		buckets[b] = append(buckets[b], norm)
	}
	var keys []int
	for k, v := range buckets {
		if len(v) >= 5 { // need a meaningful median
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	medians := make(map[int]time.Duration, len(keys))
	for _, k := range keys {
		medians[k] = stats.MedianDuration(buckets[k])
	}
	for i, k := range keys {
		if medians[k] <= theta {
			continue
		}
		persistent := true
		for _, later := range keys[i+1:] {
			if medians[later] < theta/2 {
				persistent = false
				break
			}
		}
		if persistent {
			// Midpoint of the bucket in concurrency terms.
			return k*bucketWidth + bucketWidth/2
		}
	}
	return 0
}

// PeakConcurrency returns the largest concurrency any request met.
func (r *FlashCrowdResult) PeakConcurrency() int {
	peak := 0
	for _, s := range r.Samples {
		if s.Concurrent > peak {
			peak = s.Concurrent
		}
	}
	return peak
}
