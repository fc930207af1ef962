package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mfc/internal/content"
	"mfc/internal/core"
	"mfc/internal/netsim"
	"mfc/internal/websim"
)

// WrapServer folds the scenario's static server-side effects (rate-limit
// tier, CDN front tier, sustained path loss) into a websim configuration.
// An inert scenario returns cfg unchanged.
func (c *Config) WrapServer(cfg websim.Config) websim.Config {
	if c == nil {
		return cfg
	}
	if rl := c.RateLimit; rl != nil && rl.Rate > 0 {
		cfg.LimitRate = rl.Rate
		cfg.LimitBurst = rl.Burst
		cfg.LimitReject = rl.Reject
		cfg.LimitJunk = rl.Junk
	}
	if fc := c.FrontCache; fc != nil && fc.HitRatio > 0 {
		cfg.EdgeHitRatio = fc.HitRatio
		cfg.EdgeBandwidth = fc.Bandwidth
	}
	if c.Loss > 0 {
		cfg.PathLoss = c.Loss
		if c.LossRTO > 0 {
			cfg.LossRTO = c.LossRTO
		}
	}
	return cfg
}

// Specs generates the scenario's client population from its RTT bands, or
// nil when the scenario leaves the population alone. Client i's band and
// within-band jitter are splitmix-derived from (seed, i) — like
// population.SampleAt — so assignments are stable across population sizes
// and independent of the simulation RNG's draw order.
func (c *Config) Specs(seed int64, n int) []core.SimClientSpec {
	if c == nil || len(c.RTTBands) == 0 || n <= 0 {
		return nil
	}
	total := 0.0
	weights := make([]float64, len(c.RTTBands))
	for i, b := range c.RTTBands {
		w := b.Weight
		if w == 0 {
			w = 1
		}
		weights[i] = w
		total += w
	}
	specs := make([]core.SimClientSpec, n)
	for i := range specs {
		rng := rand.New(rand.NewSource(mixSeed(seed, int64(i))))
		x := rng.Float64() * total
		k := 0
		for k < len(weights)-1 && x >= weights[k] {
			x -= weights[k]
			k++
		}
		b := c.RTTBands[k]
		jitter := b.Jitter
		if jitter == 0 {
			jitter = 0.2
		}
		bw := b.Bandwidth
		if bw <= 0 {
			bw = 4e6
		}
		// Spread the individual client ±jitter around the band center.
		spread := 1 + jitter*(2*rng.Float64()-1)
		rtt := time.Duration(float64(b.RTT) * spread)
		name := b.Name
		if name == "" {
			name = fmt.Sprintf("band%d", k)
		}
		specs[i] = core.SimClientSpec{
			ID:        fmt.Sprintf("%s-%03d", name, i),
			TargetRTT: rtt,
			CtrlRTT:   time.Duration(float64(rtt) * 0.8),
			Bandwidth: bw,
			Jitter:    0.02 + 0.06*rng.Float64(),
		}
	}
	return specs
}

// mixSeed folds the inputs through splitmix64 finalizers (the same mixing
// population.SampleAt uses) so adjacent (seed, index) tuples land on
// well-separated generator states.
func mixSeed(vals ...int64) int64 {
	z := uint64(0x9E3779B97F4A7C15)
	for _, v := range vals {
		z += uint64(v) + 0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return int64(z & math.MaxInt64)
}

// Hooks are the simulation handles Start wires the scenario's runtime
// effects into.
type Hooks struct {
	Env    *netsim.Env
	Server *websim.Server
	// Background is the run's background-traffic generator (nil or inert
	// disables diurnal modulation).
	Background *websim.BackgroundTraffic
	// Emit receives the scenario's typed events (ScenarioApplied at start,
	// FaultInjected per chaos trigger); nil is silence.
	Emit func(core.Event)
}

// Controller owns a started scenario's runtime machinery: the diurnal and
// cross-traffic processes and the chaos controller's pending fault timers.
// Stop it when the experiment body finishes, like the background
// generator.
type Controller struct {
	cfg     *Config
	stopped bool
	timers  []netsim.Timer
}

// Start wires the scenario's runtime effects into a simulation: sustained
// link loss, diurnal background modulation, cross-traffic, and the
// scheduled chaos faults. Static server-side effects must already be in
// place via WrapServer. Call before the environment runs; faults are
// scheduled at their absolute simulated times.
func (c *Config) Start(h Hooks) *Controller {
	ctl := &Controller{cfg: c}
	if c == nil || h.Env == nil || h.Server == nil {
		return ctl
	}
	emit := h.Emit
	if emit == nil {
		emit = func(core.Event) {}
	}
	access := h.Server.AccessLink()

	if c.Loss > 0 {
		// Fluid goodput scaling; the per-request stall half was installed
		// by WrapServer.
		access.SetLoss(c.Loss)
	}
	if d := c.Diurnal; d != nil && d.Period > 0 && d.High > 0 &&
		h.Background != nil && h.Background.Rate() > 0 {
		ctl.startDiurnal(h.Env, h.Background, d)
	}
	if ct := c.CrossTraffic; ct != nil && ct.PeakRate > 0 {
		ctl.startCrossTraffic(h.Env, h.Server, ct)
	}
	for _, f := range c.Faults {
		if !faultInert(f) {
			ctl.scheduleFault(h.Env, h.Server, access, f, emit)
		}
	}
	emit(core.ScenarioApplied{Name: c.Label(), Effects: c.Effects()})
	return ctl
}

// Stop ends the scenario's processes at their next wakeup and cancels
// every pending fault timer (canceled timers neither fire nor extend
// virtual time).
func (ctl *Controller) Stop() {
	ctl.stopped = true
	for _, t := range ctl.timers {
		t.Cancel()
	}
	ctl.timers = nil
}

// startDiurnal modulates the background generator's rate between Low× and
// High× its configured base, one full cycle per Period, updating every
// Period/16.
func (ctl *Controller) startDiurnal(env *netsim.Env, bg *websim.BackgroundTraffic, d *Diurnal) {
	base := bg.Rate()
	low, high := d.Low, d.High
	step := d.Period / 16
	if step <= 0 {
		step = d.Period
	}
	env.Go("scenario/diurnal", func(p *netsim.Proc) {
		for !ctl.stopped {
			p.Sleep(step)
			if ctl.stopped {
				return
			}
			phase := 2 * math.Pi * float64(p.Now()%d.Period) / float64(d.Period)
			f := (high+low)/2 - (high-low)/2*math.Cos(phase)
			if f < 0.01 {
				f = 0.01
			}
			bg.SetRate(base * f)
		}
	})
}

// startCrossTraffic launches the flash-crowd surge: Poisson arrivals
// ramping linearly to PeakRate over RampUp, holding for Hold, aimed at one
// URL (the site's largest static object unless configured).
func (ctl *Controller) startCrossTraffic(env *netsim.Env, srv *websim.Server, ct *CrossTraffic) {
	rampUp := ct.RampUp
	if rampUp <= 0 {
		rampUp = 60 * time.Second
	}
	hold := ct.Hold
	if hold <= 0 {
		hold = 30 * time.Second
	}
	rtt := ct.ClientRTT
	if rtt <= 0 {
		rtt = 60 * time.Millisecond
	}
	bw := ct.ClientBW
	if bw <= 0 {
		bw = 1e6
	}
	env.Go("scenario/cross-traffic", func(p *netsim.Proc) {
		if ct.StartAt > 0 {
			p.Sleep(ct.StartAt)
		}
		if ctl.stopped {
			return
		}
		url := ct.URL
		if url == "" {
			url = largestStatic(srv.Site())
		}
		if url == "" {
			return
		}
		start := p.Now()
		end := rampUp + hold
		for !ctl.stopped {
			el := p.Now() - start
			if el >= end {
				return
			}
			rate := ct.PeakRate
			if el < rampUp {
				rate = ct.PeakRate * float64(el) / float64(rampUp)
			}
			if rate < 0.5 {
				rate = 0.5
			}
			gap := time.Duration(env.Rand().ExpFloat64() / rate * float64(time.Second))
			if gap > 2*time.Second {
				gap = 2 * time.Second
			}
			p.Sleep(gap)
			if ctl.stopped {
				return
			}
			req := websim.Request{
				Method: "GET", URL: url,
				ClientRTT: rtt, ClientBW: bw,
				Deadline: env.Now() + 10*time.Second,
			}
			env.Spawn("xt-visitor", srv.NewVisit("xt", req, nil, nil))
		}
	})
}

// scheduleFault arms one chaos trigger (and, for transient faults, its
// paired restoration) on the environment's calendar.
func (ctl *Controller) scheduleFault(env *netsim.Env, srv *websim.Server, access *netsim.Link, f Fault, emit func(core.Event)) {
	name := ctl.cfg.Label()
	report := func(restored bool) {
		emit(core.FaultInjected{
			Scenario: name, Kind: f.Kind,
			At: env.Now(), Duration: f.Duration, Restored: restored,
		})
	}
	var apply, restore func()
	switch f.Kind {
	case FaultFlap:
		apply = func() { access.SetDown(true) }
		restore = func() { access.SetDown(false) }
	case FaultCapacityStep:
		apply = func() { access.SetCapacityFactor(f.Factor) }
		restore = func() { access.SetCapacityFactor(1) }
	case FaultLossBurst:
		sustained := ctl.cfg.Loss
		apply = func() {
			access.SetLoss(f.Loss)
			srv.SetPathLoss(f.Loss)
		}
		restore = func() {
			access.SetLoss(sustained)
			srv.SetPathLoss(sustained)
		}
	default:
		return
	}
	ctl.at(env, f.At, func() { apply(); report(false) })
	if f.Duration > 0 {
		ctl.at(env, f.At+f.Duration, func() { restore(); report(true) })
	}
}

// at arms a cancelable trigger that no-ops once the controller stops.
func (ctl *Controller) at(env *netsim.Env, at time.Duration, fn func()) {
	t := env.At(at, func() {
		if ctl.stopped {
			return
		}
		fn()
	})
	ctl.timers = append(ctl.timers, t)
}

// largestStatic picks the flash crowd's default target: the biggest
// non-dynamic object the site serves (what organic crowds pile onto, and
// what stresses the access link most).
func largestStatic(site *content.Site) string {
	url := ""
	var size int64 = -1
	for _, o := range site.Objects() {
		if !o.Dynamic && o.Size > size {
			url, size = o.URL, o.Size
		}
	}
	return url
}
