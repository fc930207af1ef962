package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mfc/internal/content"
	"mfc/internal/core"
	"mfc/internal/netsim"
	"mfc/internal/population"
	"mfc/internal/rng"
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
		cfg.RateLimit = *rl
	}
	if fc := c.FrontCache; fc != nil && fc.HitRatio > 0 {
		cfg.FrontCache = *fc
	}
	if c.Loss > 0 {
		cfg.PathLoss = c.Loss
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
	// One source, reseeded per client: a Rand keeps no Float64 state of
	// its own, so this draws what a fresh source per client would.
	var src rng.Source
	r := rand.New(&src)
	specs := make([]core.SimClientSpec, n)
	for i := range specs {
		src.Seed(population.MixSeed(seed, int64(i)))
		x := r.Float64() * total
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
		spread := 1 + jitter*(2*r.Float64()-1)
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
			Jitter:    0.02 + 0.06*r.Float64(),
		}
	}
	return specs
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
	surge   *websim.RampArrivals // the cross-traffic arrivals, if started
}

// Start wires the scenario's runtime effects into a simulation: diurnal
// background modulation, cross-traffic, and the scheduled chaos faults.
// Static server-side effects, sustained path loss among them, must already
// be in place via WrapServer. Call before the environment runs; faults are
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

	if c.DiurnalActive() && h.Background != nil && h.Background.Rate() > 0 {
		ctl.startDiurnal(h.Env, h.Background, c.Diurnal)
	}
	if ct := c.CrossTraffic; ct != nil && ct.PeakRate > 0 {
		ctl.startCrossTraffic(h.Env, h.Server, *ct)
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
	if ctl.surge != nil {
		ctl.surge.Stop()
	}
	for _, t := range ctl.timers {
		t.Cancel()
	}
	ctl.timers = nil
}

// startDiurnal modulates the background generator's rate between Low× and
// High× its configured base, one full cycle per Period, updating every
// Period/16.
func (ctl *Controller) startDiurnal(env *netsim.Env, bg *websim.BackgroundTraffic, d *Diurnal) {
	step := d.Period / 16
	if step <= 0 {
		step = d.Period
	}
	env.Spawn("scenario/diurnal", &diurnal{ctl: ctl, bg: bg, cfg: d, base: bg.Rate(), step: step})
}

// diurnal is the modulation process: every step it sets the background
// rate for the current phase of the cycle.
type diurnal struct {
	ctl     *Controller
	bg      *websim.BackgroundTraffic
	cfg     *Diurnal
	base    float64 // the background rate being modulated
	step    time.Duration
	started bool
}

// Step implements netsim.Task.
func (d *diurnal) Step(p *netsim.Proc) bool {
	if d.ctl.stopped {
		return false
	}
	if d.started { // a step elapsed
		low, high, period := d.cfg.Low, d.cfg.High, d.cfg.Period
		phase := 2 * math.Pi * float64(p.Now()%period) / float64(period)
		f := (high+low)/2 - (high-low)/2*math.Cos(phase)
		if f < 0.01 {
			f = 0.01
		}
		d.bg.SetRate(d.base * f)
	}
	d.started = true
	return p.BeginSleep(d.step)
}

// startCrossTraffic launches the flash-crowd surge: websim's ramp-arrival
// process, with the flash crowd's defaults (60 s ramp, 30 s hold, 60 ms
// and 1 MB/s visitors, 10 s budget), aimed at one URL (the site's largest
// static object unless configured; a site with none gets no visitors).
func (ctl *Controller) startCrossTraffic(env *netsim.Env, srv *websim.Server, ct websim.FlashCrowdConfig) {
	if ct.URL == "" {
		ct.URL = largestStatic(srv.Site())
	}
	ctl.surge = websim.NewRampArrivals(srv, "xt", ct)
	env.Spawn("scenario/cross-traffic", ctl.surge)
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
		apply = func() { srv.SetPathLoss(f.Loss) }
		restore = func() { srv.SetPathLoss(sustained) }
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
