package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mfc/internal/websim"
)

// The named scenarios. Each entry builds a fresh Config so callers can
// mutate their copy; campaign cells reference scenarios by these names and
// re-Parse them per job, keeping every job a pure function of its plan.
var presets = map[string]func() *Config{
	// clean is the explicit no-op scenario: a named baseline for sweeps
	// that want "clean vs perturbed" cells in one plan.
	"clean": func() *Config {
		return &Config{Name: "clean"}
	},
	// lossy: 1% sustained path loss — enough to stall large transfers now
	// and then, not enough to break a healthy site.
	"lossy": func() *Config {
		return &Config{Name: "lossy", Loss: 0.01}
	},
	// flaky-link: two 5s access-link flaps, one during the early ramp and
	// one late enough to land in a typical Check phase.
	"flaky-link": func() *Config {
		return &Config{Name: "flaky-link", Faults: []Fault{
			{Kind: FaultFlap, At: 60 * time.Second, Duration: 5 * time.Second},
			{Kind: FaultFlap, At: 180 * time.Second, Duration: 5 * time.Second},
		}}
	},
	// brownout: the access link loses half its capacity for 30s
	// mid-experiment (a peering brownout / backup saturating the uplink).
	"brownout": func() *Config {
		return &Config{Name: "brownout", Faults: []Fault{
			{Kind: FaultCapacityStep, At: 60 * time.Second, Duration: 30 * time.Second, Factor: 0.5},
		}}
	},
	// throttled: a 400 req/s shaping rate limiter (tarpit mode) in front
	// of the workers — over-limit requests are delayed. The bucket depth
	// defaults to the rate, 400, so a crowd of 50 or fewer never drains it
	// and the measurement equals the clean one.
	"throttled": func() *Config {
		return &Config{Name: "throttled", RateLimit: &websim.RateLimit{Rate: 400}}
	},
	// waf-reject: the same budget enforced by a fail-fast WAF — over-limit
	// requests get an immediate 429, hidden from latency-based detection
	// but caught by the error-class floor. Like throttled, a crowd of 50
	// or fewer never reaches the limit (see EXPERIMENTS.md).
	"waf-reject": func() *Config {
		return &Config{Name: "waf-reject", RateLimit: &websim.RateLimit{Rate: 400, Reject: true}}
	},
	// fast-junk-200: an aggressive origin-protecting tier (20 req/s,
	// burst 5 — deep enough into MFC's synchronized bursts to fire, like
	// the root limiter tests) that answers over-limit requests with
	// instant tiny bogus 200s. Invisible both to latency-quantile
	// detection (fast) and to the error-class floor (status 200): the
	// open evasion from EXPERIMENTS.md — MFC's verdict flips to NoStop
	// even though real service stopped degrading honestly.
	"fast-junk-200": func() *Config {
		return &Config{Name: "fast-junk-200", RateLimit: &websim.RateLimit{Rate: 20, Burst: 5, Junk: true}}
	},
	// cdn: 80% of cacheable requests served at the edge.
	"cdn": func() *Config {
		return &Config{Name: "cdn", FrontCache: &websim.FrontCache{HitRatio: 0.8}}
	},
	// global-clients: a three-band worldwide population instead of the
	// PlanetLab-ish default — nearby broadband, transcontinental, and a
	// high-RTT satellite tail.
	"global-clients": func() *Config {
		return &Config{Name: "global-clients", RTTBands: []RTTBand{
			{Name: "near", RTT: 25 * time.Millisecond, Bandwidth: 8e6, Weight: 5},
			{Name: "far", RTT: 150 * time.Millisecond, Bandwidth: 3e6, Weight: 4},
			{Name: "sat", RTT: 600 * time.Millisecond, Jitter: 0.1, Bandwidth: 1e6, Weight: 1},
		}}
	},
	// diurnal: background load sweeping between 0.2× and 2× its base rate
	// with a 4-minute period, so different epochs see different ambient
	// load.
	"diurnal": func() *Config {
		return &Config{Name: "diurnal", Diurnal: &Diurnal{
			Period: 4 * time.Minute, Low: 0.2, High: 2,
		}}
	},
	// flash-crowd: an organic surge ramping to 30 req/s against the
	// site's biggest object, starting 30s into the experiment.
	"flash-crowd": func() *Config {
		return &Config{Name: "flash-crowd", CrossTraffic: &websim.FlashCrowdConfig{
			PeakRate: 30, StartAt: 30 * time.Second,
			RampUp: 60 * time.Second, Hold: 60 * time.Second,
		}}
	},
	// chaos: the kitchen sink — sustained 0.5% loss plus a capacity
	// brownout and a loss burst, for chaos smoke tests.
	"chaos": func() *Config {
		return &Config{Name: "chaos", Loss: 0.005, Faults: []Fault{
			{Kind: FaultCapacityStep, At: 45 * time.Second, Duration: 20 * time.Second, Factor: 0.4},
			{Kind: FaultLossBurst, At: 120 * time.Second, Duration: 15 * time.Second, Loss: 0.05},
		}}
	},
}

// Names lists the registered scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(presets))
	for name := range presets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Parse resolves a scenario reference: a registered name, or an inline
// JSON object (anything starting with '{'). Unknown names fail with the
// list of known ones.
func Parse(s string) (*Config, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "{") {
		return Decode([]byte(s))
	}
	if build, ok := presets[s]; ok {
		return build(), nil
	}
	return nil, fmt.Errorf("scenario: unknown scenario %q (known: %s)",
		s, strings.Join(Names(), ", "))
}
