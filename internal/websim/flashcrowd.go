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
	cfg = cfg.withDefaults()
	res := &FlashCrowdResult{}
	record := func(v *Visit, resp Response) {
		res.Samples = append(res.Samples, FlashSample{
			At:         v.At,
			Concurrent: v.Concurrent,
			Resp:       env.Now() - v.At,
			Err:        resp.Err != nil,
		})
	}

	env.Go("flashcrowd", func(p *netsim.Proc) {
		// Unloaded baseline first.
		t0 := p.Now()
		srv.Serve(p, "fc-base", Request{
			Method: cfg.Method, URL: cfg.URL,
			ClientRTT: cfg.ClientRTT, ClientBW: cfg.ClientBW,
			Deadline: p.Now() + cfg.Timeout,
		})
		res.BaseResp = p.Now() - t0

		start := p.Now()
		end := cfg.RampUp + cfg.Hold
		for {
			el := p.Now() - start
			if el >= end {
				return
			}
			// Instantaneous rate: linear ramp, then flat.
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
			p.Sleep(gap)

			env.Spawn("fc-visitor", srv.NewVisit("fc", Request{
				Method: cfg.Method, URL: cfg.URL,
				ClientRTT: cfg.ClientRTT, ClientBW: cfg.ClientBW,
				Deadline: p.Now() + cfg.Timeout,
			}, nil, record))
		}
	})
	return res
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
