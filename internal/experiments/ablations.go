package experiments

import (
	"context"
	"fmt"
	"time"

	"mfc"
	"mfc/internal/content"
	"mfc/internal/core"
	"mfc/internal/netsim"
	"mfc/internal/websim"
)

// ---------------------------------------------------------------------------
// Ablation: the check phase. Without it, a single noisy epoch can stop a
// stage early; with it, stochastic crossings must re-confirm at N-1/N/N+1.
// ---------------------------------------------------------------------------

// CheckPhaseResult compares stopping decisions with and without the check
// phase over several seeds against a well-provisioned target where every
// stop is by construction a false positive.
type CheckPhaseResult struct {
	Seeds          int
	FalseStopsWith int // stops reported with the check phase on
	FalseStopsSans int // stops reported with it off
}

// AblationCheckPhase runs the Base stage repeatedly against a server that
// never degrades under the MFC load itself but carries bursty background
// traffic: an epoch colliding with a burst shows a transient jump. The
// check phase re-tests (N-1, N, N+1) and the burst is gone; without it,
// the transient is accepted as a constraint.
func AblationCheckPhase() (*CheckPhaseResult, error) {
	const seeds = 8
	res := &CheckPhaseResult{Seeds: seeds}
	// Job i is (seed i/2, check i%2==0): every (seed, variant) pair is an
	// independent simulation, counted in index order after the pool drains.
	stops, err := parMap(seeds*2, func(i int) (int, error) {
		cfg := core.DefaultConfig()
		cfg.CheckPhase = i%2 == 0
		return noisyBaseRun(cfg, int64(1000+i/2))
	})
	if err != nil {
		return nil, err
	}
	for i, stop := range stops {
		if stop > 0 {
			if i%2 == 0 {
				res.FalseStopsWith++
			} else {
				res.FalseStopsSans++
			}
		}
	}
	return res, nil
}

// noisyBaseRun runs one Base stage against a strong target under bursty
// background traffic and returns the stopping crowd (0 = NoStop; any stop
// is false by construction — the MFC crowd alone costs <20ms).
func noisyBaseRun(cfg core.Config, seed int64) (int, error) {
	srvCfg := websim.Config{
		Name:            "burst-target",
		AccessBandwidth: 1.25e9,
		Workers:         4096,
		Backlog:         4096,
		Cores:           4,
		ParseCPU:        1500 * time.Microsecond,
	}
	run, err := mfc.Run(context.Background(), mfc.SimTarget{
		Server: srvCfg, Site: websim.QTSite(7),
		Background: websim.BackgroundConfig{BurstSize: 1200, BurstEvery: 12 * time.Second},
		Clients:    60, Seed: seed, NoAccessLog: true, MonitorPeriod: -1,
	}, cfg, mfc.WithStage(core.StageBase),
		traceOpt(fmt.Sprintf("ablation-check check=%t seed=%d", cfg.CheckPhase, seed)))
	if err != nil {
		return 0, err
	}
	return run.Result.Stages[0].StoppingCrowd, nil
}

// Render prints the comparison.
func (r *CheckPhaseResult) Render() string {
	t := newTable(
		"Ablation: check phase (target never degrades; every reported stop is a false positive)",
		"variant", "false stops", "runs")
	t.addf("check phase ON|%d|%d", r.FalseStopsWith, r.Seeds)
	t.addf("check phase OFF|%d|%d", r.FalseStopsSans, r.Seeds)
	return t.String()
}

// Headline reports the false-stop counts of both variants.
func (r *CheckPhaseResult) Headline() []Metric {
	return []Metric{{"false-stops-with", float64(r.FalseStopsWith)}, {"false-stops-sans", float64(r.FalseStopsSans)}}
}

// ---------------------------------------------------------------------------
// Ablation: median vs 90th percentile for the Large Object stage when a
// majority of clients share a bottleneck link far from the target (§2.2.3).
// ---------------------------------------------------------------------------

// QuantileAblationResult compares the two detection quantiles under a
// shared middle bottleneck covering 55% of clients.
type QuantileAblationResult struct {
	// MedianStop and Q90Stop are the stopping crowds (0 = NoStop). The
	// target's own link is unconstrained, so a stop blames the target for
	// congestion it did not cause.
	MedianStop int
	Q90Stop    int
}

// AblationQuantile demonstrates why the Large Object stage requires 90% of
// clients to observe the degradation: with 55% of clients behind one
// remote bottleneck, the median rule (50% must observe) crosses the
// threshold and blames the target falsely, while the 90% rule does not.
func AblationQuantile(seed int64) (*QuantileAblationResult, error) {
	quantiles := []float64{0.5, 0.9}
	stops, err := parMap(len(quantiles), func(qi int) (int, error) {
		q := quantiles[qi]
		cfg := core.DefaultConfig()
		cfg.LargeObserveFrac = q

		// Target with an over-provisioned pipe: it is never the bottleneck;
		// 55% of clients share a thin middle link several hops away.
		run, err := mfc.Run(context.Background(), mfc.SimTarget{
			Server: websim.QTNPConfig(), Site: websim.QTSite(7), Seed: seed,
			NoAccessLog: true, MonitorPeriod: -1,
			Specs: func(env *netsim.Env) []core.SimClientSpec {
				middle := env.NewLink("shared-middle", 2.5e6)
				specs := core.PlanetLabSpecs(env, 60)
				for i := range specs {
					if i%100 < 55 {
						specs[i].Middle = middle
					}
				}
				return specs
			},
		}, cfg, mfc.WithStage(core.StageLargeObject),
			traceOpt(fmt.Sprintf("ablation-quantile q=%g", q)))
		if err != nil {
			return 0, err
		}
		return run.Result.Stages[0].StoppingCrowd, nil
	})
	if err != nil {
		return nil, err
	}
	return &QuantileAblationResult{MedianStop: stops[0], Q90Stop: stops[1]}, nil
}

// Render prints the quantile comparison.
func (r *QuantileAblationResult) Render() string {
	t := newTable(
		"Ablation: Large Object observe-fraction (55% of clients share a remote bottleneck; the target link is clean)",
		"rule", "verdict")
	t.addf("50%% must observe (median)|%s", stopStr(r.MedianStop > 0, r.MedianStop, 50))
	t.addf("90%% must observe (paper)|%s", stopStr(r.Q90Stop > 0, r.Q90Stop, 50))
	return t.String()
}

// Headline reports both rules' stopping crowds (0 = NoStop).
func (r *QuantileAblationResult) Headline() []Metric {
	return []Metric{{"median-rule-stop", float64(r.MedianStop)}, {"q90-rule-stop", float64(r.Q90Stop)}}
}

// ---------------------------------------------------------------------------
// Ablation: crowd step size — intrusiveness (total requests) vs precision.
// ---------------------------------------------------------------------------

// StepPoint is one step size's outcome.
type StepPoint struct {
	Step          int
	StoppingCrowd int
	TotalRequests int
	Epochs        int
}

// StepAblationResult sweeps the ramp increment.
type StepAblationResult struct{ Points []StepPoint }

// AblationStep sweeps the §2.2.3 crowd increment (the paper uses 5 or 10)
// against QTNP's Base stage: larger steps find a coarser stopping size with
// fewer total requests.
func AblationStep(seed int64) (*StepAblationResult, error) {
	steps := []int{2, 5, 10, 15}
	points, err := parMap(len(steps), func(i int) (StepPoint, error) {
		cfg := core.DefaultConfig()
		cfg.Step = steps[i]
		cfg.MaxCrowd = 60

		out, _, err := runSite(fmt.Sprintf("ablation-step step=%d", steps[i]), websim.QTNPConfig(), websim.QTSite(7),
			websim.BackgroundConfig{}, cfg, 70, seed)
		if err != nil {
			return StepPoint{}, err
		}
		sr := out.Stage(core.StageBase)
		return StepPoint{
			Step:          steps[i],
			StoppingCrowd: sr.StoppingCrowd,
			TotalRequests: sr.TotalRequests,
			Epochs:        len(sr.Epochs),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &StepAblationResult{Points: points}, nil
}

// Render prints the sweep.
func (r *StepAblationResult) Render() string {
	t := newTable(
		"Ablation: crowd step (precision of the stopping size vs intrusiveness)",
		"step", "Base stop", "Base requests", "epochs")
	for _, p := range r.Points {
		t.addf("%d|%d|%d|%d", p.Step, p.StoppingCrowd, p.TotalRequests, p.Epochs)
	}
	return t.String()
}

// Headline reports each step's total requests.
func (r *StepAblationResult) Headline() []Metric {
	var m []Metric
	for _, p := range r.Points {
		m = append(m, Metric{fmt.Sprintf("step%d-requests", p.Step), float64(p.TotalRequests)})
	}
	return m
}

// ---------------------------------------------------------------------------
// Extension: staggered MFC (§6) — a server that keels over under tight
// synchronization can be fine when the same volume arrives spread out.
// ---------------------------------------------------------------------------

// StaggerPoint is one inter-arrival spacing's outcome.
type StaggerPoint struct {
	Stagger       time.Duration
	StoppingCrowd int // 0 = NoStop
	MaxMedian     time.Duration
}

// StaggerResult sweeps arrival spacing on a weak target.
type StaggerResult struct{ Points []StaggerPoint }

// ExtensionStaggered runs the Base stage against the weak Univ-1 server
// with increasing inter-arrival spacing: synchronized arrivals stop early,
// staggered arrivals are absorbed.
func ExtensionStaggered(seed int64) (*StaggerResult, error) {
	staggers := []time.Duration{0, 20 * time.Millisecond, 100 * time.Millisecond, 400 * time.Millisecond}
	points, err := parMap(len(staggers), func(i int) (StaggerPoint, error) {
		cfg := core.DefaultConfig()
		cfg.Stagger = staggers[i]

		out, _, err := runSite(fmt.Sprintf("stagger %v", staggers[i]), websim.Univ1Config(), websim.Univ1Site(5),
			websim.BackgroundConfig{}, cfg, 65, seed)
		if err != nil {
			return StaggerPoint{}, err
		}
		sr := out.Stage(core.StageBase)
		var maxMed time.Duration
		for _, e := range sr.Epochs {
			if e.NormMedian > maxMed {
				maxMed = e.NormMedian
			}
		}
		return StaggerPoint{Stagger: staggers[i], StoppingCrowd: sr.StoppingCrowd, MaxMedian: maxMed}, nil
	})
	if err != nil {
		return nil, err
	}
	return &StaggerResult{Points: points}, nil
}

// Render prints the stagger sweep.
func (r *StaggerResult) Render() string {
	t := newTable(
		"Extension: staggered MFC on a weak server (paper §6: servers fine under staggered load handle medium/low-volume crowds)",
		"inter-arrival", "Base stop", "max median increase (ms)")
	for _, p := range r.Points {
		label := "synchronized"
		if p.Stagger > 0 {
			label = p.Stagger.String()
		}
		t.addf("%s|%s|%s", label, stopStr(p.StoppingCrowd > 0, p.StoppingCrowd, 50), ms(p.MaxMedian))
	}
	return t.String()
}

// Headline reports the largest median increase at both ends of the sweep.
func (r *StaggerResult) Headline() []Metric {
	return []Metric{
		{"sync-max-median-ms", msf(r.Points[0].MaxMedian)},
		{"staggered-max-median-ms", msf(r.Points[len(r.Points)-1].MaxMedian)},
	}
}

// ---------------------------------------------------------------------------
// Extension: MFC-mr multiplier sweep (§4.1).
// ---------------------------------------------------------------------------

// MRPoint is one multiplier's outcome.
type MRPoint struct {
	Multiplier   int
	StopClients  int // stopping crowd in clients (0 = NoStop)
	StopRequests int // in simultaneous requests
}

// MRResult sweeps the parallel-connection count.
type MRResult struct{ Points []MRPoint }

// ExtensionMultiRequest sweeps MFC-mr against QTNP's Base stage: the
// stopping size in *clients* shrinks toward the 15-client floor while
// the server-side load at the stop is governed by simultaneous requests —
// MFC-mr reaches a given request volume with proportionally fewer client
// machines, which is exactly why the paper uses it on QTNP and QTP.
func ExtensionMultiRequest(seed int64) (*MRResult, error) {
	multipliers := []int{1, 2, 5}
	points, err := parMap(len(multipliers), func(i int) (MRPoint, error) {
		m := multipliers[i]
		cfg := core.DefaultConfig()
		cfg.Step = 2
		cfg.MaxCrowd = 60
		cfg.MultiRequest = m

		out, _, err := runSite(fmt.Sprintf("multi-request m=%d", m), websim.QTNPConfig(), websim.QTSite(7),
			websim.BackgroundConfig{}, cfg, 70, seed)
		if err != nil {
			return MRPoint{}, err
		}
		sr := out.Stage(core.StageBase)
		return MRPoint{Multiplier: m, StopClients: sr.StoppingCrowd, StopRequests: sr.StoppingCrowd * cfg.MultiRequest}, nil
	})
	if err != nil {
		return nil, err
	}
	return &MRResult{Points: points}, nil
}

// Render prints the sweep.
func (r *MRResult) Render() string {
	t := newTable(
		"Extension: MFC-mr multiplier (stopping size in requests is invariant; in clients it shrinks ~1/m)",
		"parallel reqs/client", "stop (clients)", "stop (requests)")
	for _, p := range r.Points {
		t.addf("%d|%s|%s", p.Multiplier,
			stopStr(p.StopClients > 0, p.StopClients, 60),
			stopStr(p.StopRequests > 0, p.StopRequests, 60*p.Multiplier))
	}
	return t.String()
}

// Headline reports each multiplier's stopping crowd in clients (0 = NoStop).
func (r *MRResult) Headline() []Metric {
	var m []Metric
	for _, p := range r.Points {
		m = append(m, Metric{fmt.Sprintf("m%d-stop-clients", p.Multiplier), float64(p.StopClients)})
	}
	return m
}

// ExtensionDDoS runs the full MFC against a weak and a strong target and
// prints each result under its §6 vulnerability reading; the headline is
// each grade as its core.DDoSGrade number (1 resilient, 2 moderate, 3
// highly vulnerable).
func ExtensionDDoS(seed int64) (Report, error) {
	var j joined
	for _, t := range []struct {
		name, label string
		cfg         websim.Config
		site        *content.Site
	}{
		{"weak", "weak target (univ3)", websim.Univ3Config(), websim.Univ3Site(5)},
		{"strong", "strong target (qtp)", websim.QTPConfig(), websim.QTSite(7)},
	} {
		out, _, err := runSite("ddos "+t.name, t.cfg, t.site, websim.BackgroundConfig{}, core.DefaultConfig(), 65, seed)
		if err != nil {
			return nil, err
		}
		a := core.Assess(out)
		j.tables = append(j.tables, fmt.Sprintf("--- %s ---\n%s\n%s", t.label, out, a))
		j.headline = append(j.headline, Metric{t.name + "-ddos-grade", float64(a.DDoS)})
	}
	return j, nil
}
