// Package scenario is the composable environment layer around a simulated
// MFC experiment: it wraps any websim server/site with the messy conditions
// real installations live under — CDN front tiers, heterogeneous client RTT
// bands, diurnal background load, sustained packet loss, WAF-style rate
// limiting, flash-crowd cross-traffic — and a chaos controller that injects
// scheduled faults (link flaps, capacity steps, loss bursts) at fixed
// points of simulated time.
//
// Determinism contract: a scenario run is a pure function of
// (scenario, seed). Client-band assignment is splitmix index-derived (like
// population.SampleAt) so client i's band never depends on population
// size; per-request draws use the simulation's seeded RNG; the rate
// limiter and every scheduled fault are RNG-free. Effects configured at
// zero intensity draw nothing and change nothing: a zero-intensity
// scenario run is byte-identical to the bare preset (enforced by the
// determinism-guard differential test).
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"mfc/internal/websim"
)

// Config declares one scenario. The zero Config is the clean environment:
// every effect is off, and wrapping a run with it changes nothing. Configs
// decode from JSON (Decode) and have a named-preset registry (Parse,
// Names).
type Config struct {
	// Name labels the scenario in Result metadata, events, and campaign
	// cells.
	Name string `json:"name,omitempty"`

	// Loss is a sustained packet-loss fraction in [0, 0.99] on the
	// server's path: the access link's fluid goodput scales by (1-Loss)
	// and each response risks a retransmission stall (websim
	// Config.PathLoss). 0 disables.
	Loss float64 `json:"loss,omitempty"`

	// RTTBands, when non-empty, replaces the default client population
	// with one drawn from weighted RTT/bandwidth bands (regional CDN-less
	// audiences, satellite users, ...). Assignment is splitmix-derived
	// from (seed, client index).
	RTTBands []RTTBand `json:"rtt_bands,omitempty"`

	// RateLimit puts websim's token-bucket throttling tier (WAF / reverse
	// proxy) in front of the server's worker pool.
	RateLimit *websim.RateLimit `json:"rate_limit,omitempty"`
	// FrontCache puts websim's CDN/cache tier in front of the origin.
	FrontCache *websim.FrontCache `json:"front_cache,omitempty"`
	// Diurnal modulates the run's background-traffic rate sinusoidally.
	Diurnal *Diurnal `json:"diurnal,omitempty"`
	// CrossTraffic aims an organic flash crowd (websim's ramp arrivals) at
	// the server while the experiment runs. Its URL defaults to the site's
	// largest static object.
	CrossTraffic *websim.FlashCrowdConfig `json:"cross_traffic,omitempty"`

	// Faults are the chaos controller's scheduled mid-experiment triggers.
	Faults []Fault `json:"faults,omitempty"`
}

// RTTBand is one weighted slice of the client population.
type RTTBand struct {
	// Name prefixes the generated client IDs (default "band<k>").
	Name string `json:"name,omitempty"`
	// RTT is the band's center round-trip time to the target (required).
	RTT time.Duration `json:"rtt"`
	// Jitter spreads individual clients ±this fraction around RTT
	// (default 0.2, must be in [0, 1)).
	Jitter float64 `json:"jitter,omitempty"`
	// Bandwidth is the per-client rate in bytes/sec (default 4 MB/s).
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// Weight is the band's share of the population (default 1).
	Weight float64 `json:"weight,omitempty"`
}

// Diurnal modulates background load as base × (mid − amp·cos(2πt/Period)),
// sweeping the rate between Low× and High× the configured base rate over
// each Period. Period 0 or High 0 disables.
type Diurnal struct {
	Period time.Duration `json:"period"`
	// Low and High are the trough and peak rate multipliers (High ≥ Low).
	Low  float64 `json:"low"`
	High float64 `json:"high"`
}

// Fault kinds understood by the chaos controller.
const (
	// FaultFlap takes the access link down for Duration: every in-flight
	// transfer stalls at rate zero and client deadlines start burning.
	FaultFlap = "flap"
	// FaultCapacityStep multiplies the access link's capacity by Factor
	// for Duration (0 = for the rest of the run) — adversarially
	// non-stationary bandwidth.
	FaultCapacityStep = "capacity-step"
	// FaultLossBurst raises the path loss to Loss for Duration (0 = for
	// the rest of the run), then restores the scenario's sustained level.
	FaultLossBurst = "loss-burst"
)

// Fault is one scheduled chaos trigger. Fields beyond Kind/At/Duration
// apply per kind; a fault whose intensity field is zero (flap with no
// Duration, capacity step at Factor 1 or 0, loss burst at Loss 0) is
// valid and inert.
type Fault struct {
	Kind string        `json:"kind"`
	At   time.Duration `json:"at"`
	// Duration is how long the fault holds before restoration; 0 means
	// permanent for the rest of the run (flap requires Duration > 0 to
	// have any effect).
	Duration time.Duration `json:"duration,omitempty"`
	// Factor is the capacity multiplier for capacity-step faults.
	Factor float64 `json:"factor,omitempty"`
	// Loss is the burst loss fraction for loss-burst faults.
	Loss float64 `json:"loss,omitempty"`
}

// Label returns the scenario's display name.
func (c *Config) Label() string {
	if c == nil || c.Name == "" {
		return "custom"
	}
	return c.Name
}

// DiurnalActive reports whether the scenario modulates background traffic:
// it has a diurnal effect with a positive Period and High. An inert diurnal
// is a pass-through like every other inert effect.
func (c *Config) DiurnalActive() bool {
	return c != nil && c.Diurnal != nil && c.Diurnal.Period > 0 && c.Diurnal.High > 0
}

// Validate checks the configuration's static invariants. A valid scenario
// may still be inert (every intensity zero) — inert effects are the
// pass-through contract, not an error.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	if c.Loss < 0 || c.Loss > 0.99 {
		return fmt.Errorf("scenario: loss %g outside [0, 0.99]", c.Loss)
	}
	totalWeight := 0.0
	for i, b := range c.RTTBands {
		if b.RTT <= 0 {
			return fmt.Errorf("scenario: rtt_bands[%d]: rtt must be positive", i)
		}
		if b.Jitter < 0 || b.Jitter >= 1 {
			return fmt.Errorf("scenario: rtt_bands[%d]: jitter %g outside [0, 1)", i, b.Jitter)
		}
		if b.Bandwidth < 0 {
			return fmt.Errorf("scenario: rtt_bands[%d]: negative bandwidth", i)
		}
		if b.Weight < 0 {
			return fmt.Errorf("scenario: rtt_bands[%d]: negative weight", i)
		}
		w := b.Weight
		if w == 0 {
			w = 1
		}
		totalWeight += w
	}
	if len(c.RTTBands) > 0 && totalWeight <= 0 {
		return errors.New("scenario: rtt_bands have zero total weight")
	}
	if rl := c.RateLimit; rl != nil {
		if rl.Rate < 0 {
			return fmt.Errorf("scenario: rate_limit.rate %g is negative", rl.Rate)
		}
		if rl.Burst < 0 {
			return fmt.Errorf("scenario: rate_limit.burst %d is negative", rl.Burst)
		}
		if rl.Reject && rl.Junk {
			return errors.New("scenario: rate_limit.reject and rate_limit.junk are mutually exclusive")
		}
	}
	if fc := c.FrontCache; fc != nil {
		if fc.HitRatio < 0 || fc.HitRatio > 1 {
			return fmt.Errorf("scenario: front_cache.hit_ratio %g outside [0, 1]", fc.HitRatio)
		}
	}
	if d := c.Diurnal; d != nil {
		if d.Period < 0 {
			return fmt.Errorf("scenario: diurnal.period %v is negative", d.Period)
		}
		if d.Low < 0 || d.High < 0 {
			return errors.New("scenario: diurnal factors must be non-negative")
		}
		if d.High > 0 && d.High < d.Low {
			return fmt.Errorf("scenario: diurnal.high %g below diurnal.low %g", d.High, d.Low)
		}
	}
	if ct := c.CrossTraffic; ct != nil {
		if ct.PeakRate < 0 {
			return fmt.Errorf("scenario: cross_traffic.peak_rate %g is negative", ct.PeakRate)
		}
		if ct.StartAt < 0 || ct.RampUp < 0 || ct.Hold < 0 {
			return errors.New("scenario: cross_traffic durations must be non-negative")
		}
	}
	for i, f := range c.Faults {
		switch f.Kind {
		case FaultFlap, FaultCapacityStep, FaultLossBurst:
		default:
			return fmt.Errorf("scenario: faults[%d]: unknown kind %q (known: %s, %s, %s)",
				i, f.Kind, FaultFlap, FaultCapacityStep, FaultLossBurst)
		}
		if f.At < 0 {
			return fmt.Errorf("scenario: faults[%d]: negative at %v", i, f.At)
		}
		if f.Duration < 0 {
			return fmt.Errorf("scenario: faults[%d]: negative duration %v", i, f.Duration)
		}
		if f.Factor < 0 {
			return fmt.Errorf("scenario: faults[%d]: negative factor %g", i, f.Factor)
		}
		if f.Loss < 0 || f.Loss > 0.99 {
			return fmt.Errorf("scenario: faults[%d]: loss %g outside [0, 0.99]", i, f.Loss)
		}
	}
	return nil
}

// Effects lists the scenario's active effects in canonical order — the
// payload of the ScenarioApplied event. Inert (zero-intensity) effects are
// omitted; an empty list means the scenario is a pass-through.
func (c *Config) Effects() []string {
	if c == nil {
		return nil
	}
	var out []string
	if c.Loss > 0 {
		out = append(out, fmt.Sprintf("loss=%g", c.Loss))
	}
	if len(c.RTTBands) > 0 {
		out = append(out, fmt.Sprintf("rtt-bands=%d", len(c.RTTBands)))
	}
	if fc := c.FrontCache; fc != nil && fc.HitRatio > 0 {
		out = append(out, fmt.Sprintf("front-cache=%g", fc.HitRatio))
	}
	if rl := c.RateLimit; rl != nil && rl.Rate > 0 {
		mode := "delay"
		switch {
		case rl.Junk:
			mode = "junk"
		case rl.Reject:
			mode = "reject"
		}
		out = append(out, fmt.Sprintf("rate-limit=%g/s,%s", rl.Rate, mode))
	}
	if c.DiurnalActive() {
		out = append(out, fmt.Sprintf("diurnal=%v", c.Diurnal.Period))
	}
	if ct := c.CrossTraffic; ct != nil && ct.PeakRate > 0 {
		out = append(out, fmt.Sprintf("cross-traffic=%g/s@%v", ct.PeakRate, ct.StartAt))
	}
	for _, f := range c.Faults {
		if faultInert(f) {
			continue
		}
		out = append(out, fmt.Sprintf("%s@%v", f.Kind, f.At))
	}
	return out
}

// faultInert reports whether a fault has zero intensity and can be skipped
// without the run noticing.
func faultInert(f Fault) bool {
	switch f.Kind {
	case FaultFlap:
		return f.Duration <= 0
	case FaultCapacityStep:
		return f.Factor <= 0 || f.Factor == 1
	case FaultLossBurst:
		return f.Loss <= 0
	}
	return true
}

// Decode parses a JSON scenario configuration strictly: unknown fields,
// trailing data, and invariant violations are errors. Arbitrary input
// never panics (fuzz-enforced).
func Decode(data []byte) (*Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("scenario: decode: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); !errors.Is(err, io.EOF) {
		return nil, errors.New("scenario: decode: trailing data after configuration")
	}
	// Normalize explicit empty lists to nil so configs compare (and
	// re-encode) identically however the JSON spelled them.
	if len(c.RTTBands) == 0 {
		c.RTTBands = nil
	}
	if len(c.Faults) == 0 {
		c.Faults = nil
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}
