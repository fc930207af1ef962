package websim

import (
	"time"

	"mfc/internal/netsim"
)

// BackgroundConfig describes the regular (non-MFC) request workload a
// production server carries during an experiment (§4 reports 0.15–20.3
// requests/sec at the cooperating sites).
type BackgroundConfig struct {
	// Rate is the Poisson arrival rate in requests per second.
	Rate float64
	// QueryFraction is the share of background requests hitting dynamic
	// URLs (default 0.2).
	QueryFraction float64
	// BurstSize and BurstEvery model transient load spikes: every
	// ~BurstEvery (exponential), BurstSize extra requests arrive within
	// about a second. Bursts are the "stochastic effects" the coordinator's
	// check phase exists to discount (§2.2.3): an epoch colliding with a
	// burst sees a response-time jump that does not reproduce.
	BurstSize  int
	BurstEvery time.Duration
}

// A typical background visitor, and the per-request budget of every
// non-MFC visitor (background and flash crowd).
const (
	backgroundRTT  = 60 * time.Millisecond
	backgroundBW   = 500e3 // bytes/s
	visitorTimeout = 10 * time.Second
)

func (c BackgroundConfig) withDefaults() BackgroundConfig {
	if c.QueryFraction <= 0 || c.QueryFraction > 1 {
		c.QueryFraction = 0.2
	}
	return c
}

// BackgroundTraffic generates Poisson request arrivals against srv until
// stopped. Requests pick uniformly among the site's static objects (pages
// and images) or, with QueryFraction probability, its dynamic ones.
type BackgroundTraffic struct {
	cfg     BackgroundConfig
	srv     *Server
	stopped bool
}

// StartBackground launches the generator's arrival processes: stackless
// tasks, like the visitors they spawn. With a non-positive rate (and no
// bursts) it is inert: nothing is scheduled.
func StartBackground(env *netsim.Env, srv *Server, cfg BackgroundConfig) *BackgroundTraffic {
	bt := &BackgroundTraffic{cfg: cfg.withDefaults(), srv: srv}
	arrivals, bursts := cfg.Rate > 0, cfg.BurstSize > 0 && cfg.BurstEvery > 0
	if !arrivals && !bursts {
		return bt
	}
	// Partition the site once.
	var static, dynamic []string
	for _, o := range srv.site.Objects() {
		if o.Dynamic {
			dynamic = append(dynamic, o.URL)
		} else if o.Size < 256*1024 { // background visitors rarely pull blobs
			static = append(static, o.URL)
		}
	}
	if arrivals {
		env.Spawn("bg/"+srv.cfg.Name, &bgArrivals{bt: bt, static: static, dynamic: dynamic})
	}
	if bursts {
		env.Spawn("bg-burst/"+srv.cfg.Name, &bgBursts{bt: bt, urls: static})
	}
	return bt
}

// bgBursts injects occasional request spikes: it sleeps an exponential gap
// around BurstEvery, then schedules BurstSize visitors within 200 ms.
type bgBursts struct {
	bt      *BackgroundTraffic
	urls    []string // bursts hit the static objects only
	started bool
}

// Step implements netsim.Task.
func (g *bgBursts) Step(p *netsim.Proc) bool {
	bt, env := g.bt, p.Env()
	if g.started { // a gap elapsed: the burst arrives
		if bt.stopped {
			return false
		}
		for i := 0; i < bt.cfg.BurstSize; i++ {
			offset := time.Duration(env.Rand().Float64() * 200 * float64(time.Millisecond))
			url := g.urls[env.Rand().Intn(len(g.urls))]
			req := Request{
				Method:    "GET",
				URL:       url,
				ClientRTT: backgroundRTT,
				ClientBW:  backgroundBW,
				Deadline:  env.Now() + offset + visitorTimeout,
			}
			env.SpawnAfter("bg-burst-req", offset, bt.srv.NewVisit("bg", req, nil))
		}
	}
	g.started = true
	if bt.stopped || len(g.urls) == 0 {
		return false
	}
	gap := time.Duration(env.Rand().ExpFloat64() * float64(bt.cfg.BurstEvery))
	if gap > 10*bt.cfg.BurstEvery {
		gap = 10 * bt.cfg.BurstEvery
	}
	return p.BeginSleep(gap)
}

// Stop ends the arrival process after the next arrival tick.
func (bt *BackgroundTraffic) Stop() { bt.stopped = true }

// SetRate changes the Poisson arrival rate mid-run (diurnal modulation).
// The generator reads the rate per arrival, so the change takes effect at
// the next inter-arrival draw. A non-positive rate is ignored — use Stop
// to end the workload; a generator started with Rate 0 was never launched
// and stays inert regardless.
func (bt *BackgroundTraffic) SetRate(r float64) {
	if r > 0 {
		bt.cfg.Rate = r
	}
}

// Rate returns the current Poisson arrival rate.
func (bt *BackgroundTraffic) Rate() float64 { return bt.cfg.Rate }

// bgArrivals is the Poisson arrival process: an exponential gap at the
// current rate, then one visitor.
type bgArrivals struct {
	bt              *BackgroundTraffic
	static, dynamic []string
	started         bool
}

// Step implements netsim.Task.
func (g *bgArrivals) Step(p *netsim.Proc) bool {
	bt, env := g.bt, p.Env()
	static, dynamic := g.static, g.dynamic
	if g.started { // a gap elapsed: one visitor arrives
		if bt.stopped {
			return false
		}
		url := ""
		if len(dynamic) > 0 && (len(static) == 0 || env.Rand().Float64() < bt.cfg.QueryFraction) {
			url = dynamic[env.Rand().Intn(len(dynamic))]
		} else {
			url = static[env.Rand().Intn(len(static))]
		}
		// Jitter visitor RTT ±40% around the typical value.
		rtt := time.Duration(float64(backgroundRTT) * (0.6 + 0.8*env.Rand().Float64()))
		req := Request{
			Method:    "GET",
			URL:       url,
			ClientRTT: rtt,
			ClientBW:  backgroundBW * (0.5 + env.Rand().Float64()),
			Deadline:  env.Now() + visitorTimeout,
		}
		env.Spawn("bg-req", bt.srv.NewVisit("bg", req, nil))
	}
	g.started = true
	if bt.stopped || len(static)+len(dynamic) == 0 {
		return false
	}
	// Exponential inter-arrival for a Poisson process.
	gap := time.Duration(env.Rand().ExpFloat64() / bt.cfg.Rate * float64(time.Second))
	if gap > time.Minute {
		gap = time.Minute
	}
	return p.BeginSleep(gap)
}
