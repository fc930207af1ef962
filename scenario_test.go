package mfc

// Verdict robustness under scenarios and chaos: the determinism guard (a
// zero-intensity scenario is byte-identical to the bare preset) and the
// stop-detection confusion matrix under each environmental effect — which
// perturbations MFC's inference must shrug off, which it must detect, and
// which it provably cannot see (the reject-mode limiter, a documented
// finding).

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// fingerprintScenario is fingerprintOf with Result.Scenario blanked: the
// scenario label is intentional metadata, everything else must match the
// clean run bit for bit when the scenario is zero-intensity.
func fingerprintScenario(t *testing.T, target SimTarget, cfg Config) runFingerprint {
	t.Helper()
	run, err := Run(context.Background(), target, cfg)
	if err != nil {
		t.Fatalf("experiment failed: %v", err)
	}
	run.Result.Scenario = ""
	return fingerprintOf(t, run)
}

// zeroIntensityScenario configures every effect the engine knows at zero
// intensity: present, validated, and contractually invisible.
func zeroIntensityScenario() *Scenario {
	return &Scenario{
		Name:         "zero",
		RateLimit:    &ScenarioRateLimit{},
		FrontCache:   &ScenarioFrontCache{},
		Diurnal:      &ScenarioDiurnal{},
		CrossTraffic: &ScenarioCrossTraffic{},
		Faults: []ScenarioFault{
			{Kind: FaultFlap, At: 30 * time.Second},                    // no duration
			{Kind: FaultCapacityStep, At: 30 * time.Second, Factor: 1}, // factor 1
			{Kind: FaultLossBurst, At: 30 * time.Second},               // no loss
		},
	}
}

// TestZeroIntensityScenarioByteIdentical is the determinism guard: wrapping
// a run in a scenario whose every effect is configured at zero intensity
// must reproduce the bare preset's run byte for byte — Result encoding,
// access-log hash, and virtual time — across seeds.
func TestZeroIntensityScenarioByteIdentical(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCrowd = 40
	cfg.KeepSamples = true
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			base := SimTarget{Server: PresetQTNP(), Site: PresetQTSite(7), Clients: 65, Seed: seed,
				Background: BackgroundConfig{Rate: 5}}
			clean := fingerprintScenario(t, base, cfg)
			wrapped := base
			wrapped.Scenario = zeroIntensityScenario()
			zero := fingerprintScenario(t, wrapped, cfg)
			if clean.resultJSON != zero.resultJSON {
				t.Errorf("Result diverges under zero-intensity scenario\nclean: %.400s\nzero:  %.400s",
					clean.resultJSON, zero.resultJSON)
			}
			if clean.traceHash != zero.traceHash {
				t.Errorf("access-log hash diverges: clean %s, zero %s", clean.traceHash, zero.traceHash)
			}
			if clean.elapsed != zero.elapsed {
				t.Errorf("virtual elapsed diverges: clean %s, zero %s", clean.elapsed, zero.elapsed)
			}
		})
	}
}

// runVerdicts runs a full experiment and indexes verdicts by stage.
func runVerdicts(t *testing.T, target SimTarget, cfg Config) map[Stage]*StageResult {
	t.Helper()
	run, err := Run(context.Background(), target, cfg)
	if err != nil {
		t.Fatalf("experiment failed: %v", err)
	}
	out := make(map[Stage]*StageResult, len(run.Result.Stages))
	for _, sr := range run.Result.Stages {
		out[sr.Stage] = sr
	}
	return out
}

// TestSustainedLossNoFalseDegradationOnQTP: 1% sustained path loss on the
// over-provisioned production farm must not flip any stage's verdict — the
// quantile-based detection rule (half the crowd for Base, 90% for Large)
// is exactly what makes isolated retransmission stalls invisible.
func TestSustainedLossNoFalseDegradationOnQTP(t *testing.T) {
	cfg := DefaultConfig()
	for _, seed := range []int64{1, 2, 3} {
		base := SimTarget{Server: PresetQTP(), Site: PresetQTSite(7), Clients: 65, Seed: seed}
		clean := runVerdicts(t, base, cfg)
		lossy := base
		var err error
		if lossy.Scenario, err = ParseScenario("lossy"); err != nil {
			t.Fatal(err)
		}
		perturbed := runVerdicts(t, lossy, cfg)
		for stage, cl := range clean {
			if cl.Verdict != VerdictNoStop {
				t.Fatalf("seed %d: clean QTP %s = %v; the baseline must be over-provisioned", seed, stage, cl.Verdict)
			}
			if got := perturbed[stage].Verdict; got != VerdictNoStop {
				t.Errorf("seed %d: 1%% loss flipped %s to %v (stop=%d) — false degradation",
					seed, stage, got, perturbed[stage].StoppingCrowd)
			}
		}
	}
}

// TestFlapDuringCheckShiftsStopAtMostOneStep: a transient link flap while
// the Base stage probes and checks must not move a confirmed stopping
// crowd by more than one step — the check phase's job is to confirm
// degradation at the stop, and a 5s outage is noise it must absorb, not a
// new verdict.
func TestFlapDuringCheckShiftsStopAtMostOneStep(t *testing.T) {
	cfg := DefaultConfig()
	for _, seed := range []int64{1, 2, 3} {
		base := SimTarget{Server: PresetQTNP(), Site: PresetQTSite(7), Clients: 65, Seed: seed}
		clean := runVerdicts(t, base, cfg)[StageBase]
		if clean.Verdict != VerdictStopped {
			t.Fatalf("seed %d: clean QTNP Base = %v; expected a confirmed stop", seed, clean.Verdict)
		}
		flapped := base
		flapped.Scenario = &Scenario{Name: "mid-check-flap", Faults: []ScenarioFault{
			{Kind: FaultFlap, At: 60 * time.Second, Duration: 5 * time.Second},
		}}
		got := runVerdicts(t, flapped, cfg)[StageBase]
		if got.Verdict != VerdictStopped {
			t.Errorf("seed %d: flap flipped Base verdict to %v", seed, got.Verdict)
			continue
		}
		if diff := got.StoppingCrowd - clean.StoppingCrowd; diff > cfg.Step || diff < -cfg.Step {
			t.Errorf("seed %d: flap moved the stop %d -> %d (more than one step of %d)",
				seed, clean.StoppingCrowd, got.StoppingCrowd, cfg.Step)
		}
	}
}

// TestCapacityStepDegradesLargeObject: a standing capacity collapse on the
// access link is a real bandwidth constraint, and the Large Object stage
// exists to find exactly that — the step must flip LargeObject from
// NoStop to a confirmed stop while leaving the CPU-bound Base inference's
// verdict alone.
func TestCapacityStepDegradesLargeObject(t *testing.T) {
	cfg := DefaultConfig()
	base := SimTarget{Server: PresetQTP(), Site: PresetQTSite(7), Clients: 65, Seed: 1}
	clean := runVerdicts(t, base, cfg)
	if v := clean[StageLargeObject].Verdict; v != VerdictNoStop {
		t.Fatalf("clean QTP LargeObject = %v; baseline must be unconstrained", v)
	}
	squeezed := base
	// The farm's 20 GB/s link collapses to 40 MB/s — below the probing
	// crowd's aggregate client bandwidth, so large transfers contend.
	squeezed.Scenario = &Scenario{Name: "standing-brownout", Faults: []ScenarioFault{
		{Kind: FaultCapacityStep, At: 0, Factor: 0.002}, // no duration: holds all run
	}}
	got := runVerdicts(t, squeezed, cfg)
	if v := got[StageLargeObject].Verdict; v != VerdictStopped {
		t.Errorf("LargeObject under capacity collapse = %v, want Stopped (first-exceed %d)",
			v, got[StageLargeObject].FirstExceed)
	}
	// Directional: the bandwidth fault must show up in the bandwidth stage,
	// not smear into the CPU-bound Base inference (base pages are small).
	if v := got[StageBase].Verdict; v != VerdictNoStop {
		t.Errorf("Base under capacity collapse = %v, want NoStop", v)
	}
}

// TestDelayLimiterIsDetected: a WAF that tarpits over-limit requests adds
// real queueing delay, which the Base stage must see as degradation — the
// throttling tier becomes the installation's weakest subsystem.
func TestDelayLimiterIsDetected(t *testing.T) {
	cfg := DefaultConfig()
	base := SimTarget{Server: PresetQTP(), Site: PresetQTSite(7), Clients: 65, Seed: 1}
	throttled := base
	throttled.Scenario = &Scenario{Name: "tarpit", RateLimit: &ScenarioRateLimit{Rate: 20, Burst: 5}}
	got := runVerdicts(t, throttled, cfg)[StageBase]
	if got.Verdict != VerdictStopped {
		t.Errorf("Base behind a 20/s delay limiter = %v, want Stopped (first-exceed %d)",
			got.Verdict, got.FirstExceed)
	}
}

// TestRejectLimiterIsDetected: a WAF that answers over-limit requests
// with an instant 429 produces *fast* responses, which used to evade
// latency-quantile detection entirely (the suite's old negative finding).
// Detection now scores error-class responses — 429s, 5xx, timeouts — as
// the full request timeout: a refused client is at least as degraded as
// one that waited out the clock, so the rejecting tier is reported as the
// stopping subsystem just like its tarpit sibling.
func TestRejectLimiterIsDetected(t *testing.T) {
	cfg := DefaultConfig()
	base := SimTarget{Server: PresetQTP(), Site: PresetQTSite(7), Clients: 65, Seed: 1}
	waf := base
	waf.Scenario = &Scenario{Name: "waf", RateLimit: &ScenarioRateLimit{Rate: 20, Burst: 5, Reject: true}}
	run, err := Run(context.Background(), waf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := run.Server.RateLimited(); n == 0 {
		t.Fatal("reject limiter never fired; the test exercises nothing")
	}
	got := run.Result.Stage(StageBase)
	if got.Verdict != VerdictStopped {
		t.Errorf("Base behind a 20/s reject limiter = %v, want Stopped (first-exceed %d)",
			got.Verdict, got.FirstExceed)
	}
}

// TestJunkLimiterEvades: the evasive sibling of the reject WAF — a tier
// that answers over-limit requests with instant tiny bogus 200s. The fast
// 200 is invisible to latency-quantile detection (quick) AND to the
// error-class floor (status 200 is not an error class), so the same
// constrained site that a reject limiter cannot hide flips to NoStop.
// This is the ROADMAP's predicted evasion; the analyze confusion matrix
// exists to make exactly this disagreement visible at sweep scale.
func TestJunkLimiterEvades(t *testing.T) {
	cfg := DefaultConfig()
	base := SimTarget{Server: PresetQTP(), Site: PresetQTSite(7), Clients: 65, Seed: 1}
	junk := base
	junk.Scenario = &Scenario{Name: "junk", RateLimit: &ScenarioRateLimit{Rate: 20, Burst: 5, Junk: true}}
	run, err := Run(context.Background(), junk, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := run.Server.JunkServed(); n == 0 {
		t.Fatal("junk limiter never fired; the test exercises nothing")
	}
	got := run.Result.Stage(StageBase)
	if got.Verdict != VerdictNoStop {
		t.Errorf("Base behind a 20/s junk limiter = %v, want NoStop (the evasion works; first-exceed %d)",
			got.Verdict, got.FirstExceed)
	}
}

// TestRTTBandsDoNotChangeVerdicts: client heterogeneity is environment,
// not server state — per-client baseline normalization must keep every
// stage verdict identical (and a confirmed stop within one step) when the
// population spans 25ms to 600ms RTT bands.
func TestRTTBandsDoNotChangeVerdicts(t *testing.T) {
	cfg := DefaultConfig()
	base := SimTarget{Server: PresetQTNP(), Site: PresetQTSite(7), Clients: 65, Seed: 1}
	clean := runVerdicts(t, base, cfg)
	banded := base
	var err error
	if banded.Scenario, err = ParseScenario("global-clients"); err != nil {
		t.Fatal(err)
	}
	got := runVerdicts(t, banded, cfg)
	for stage, cl := range clean {
		g := got[stage]
		if g.Verdict != cl.Verdict {
			t.Errorf("%s verdict changed under RTT bands: %v -> %v", stage, cl.Verdict, g.Verdict)
			continue
		}
		if cl.Verdict == VerdictStopped {
			if diff := g.StoppingCrowd - cl.StoppingCrowd; diff > cfg.Step || diff < -cfg.Step {
				t.Errorf("%s stop moved %d -> %d under RTT bands (more than one step)",
					stage, cl.StoppingCrowd, g.StoppingCrowd)
			}
		}
	}
}

// TestCrossTrafficOnQTPStaysNoStop: an organic flash crowd sharing the
// over-provisioned farm consumes headroom the experiment never needed —
// the sixteen-server farm absorbs both, and no stage may report a stop.
func TestCrossTrafficOnQTPStaysNoStop(t *testing.T) {
	cfg := DefaultConfig()
	base := SimTarget{Server: PresetQTP(), Site: PresetQTSite(7), Clients: 65, Seed: 1}
	crowded := base
	var err error
	if crowded.Scenario, err = ParseScenario("flash-crowd"); err != nil {
		t.Fatal(err)
	}
	got := runVerdicts(t, crowded, cfg)
	for stage, sr := range got {
		if sr.Verdict != VerdictNoStop {
			t.Errorf("%s under cross-traffic = %v (stop=%d), want NoStop on the farm",
				stage, sr.Verdict, sr.StoppingCrowd)
		}
	}
}

// TestScenarioEventsAndResultMetadata: a scenario-wrapped run announces
// itself (ScenarioApplied before any stage), reports each chaos trigger
// and its restoration as typed events, and stamps the Result with the
// scenario label.
func TestScenarioEventsAndResultMetadata(t *testing.T) {
	cfg := DefaultConfig()
	target := SimTarget{Server: PresetQTNP(), Site: PresetQTSite(7), Clients: 65, Seed: 1}
	var err error
	if target.Scenario, err = ParseScenario("flaky-link"); err != nil {
		t.Fatal(err)
	}
	var events []Event
	sess, err := Run(context.Background(), target, cfg,
		WithObserver(func(ev Event) { events = append(events, ev) }))
	if err != nil {
		t.Fatal(err)
	}
	if sess.Result.Scenario != "flaky-link" {
		t.Errorf("Result.Scenario = %q, want flaky-link", sess.Result.Scenario)
	}
	applied, faults := -1, 0
	firstStage := -1
	for i, ev := range events {
		switch e := ev.(type) {
		case ScenarioApplied:
			applied = i
			if e.Name != "flaky-link" || len(e.Effects) != 2 {
				t.Errorf("ScenarioApplied = %+v", e)
			}
		case FaultInjected:
			faults++
			if e.Kind != FaultFlap || e.Scenario != "flaky-link" {
				t.Errorf("FaultInjected = %+v", e)
			}
		case StageStarted:
			if firstStage < 0 {
				firstStage = i
			}
		}
	}
	if applied < 0 {
		t.Fatal("no ScenarioApplied event")
	}
	if firstStage >= 0 && applied > firstStage {
		t.Errorf("ScenarioApplied at event %d, after the first StageStarted at %d", applied, firstStage)
	}
	// Both 5s flaps (60s, 180s) fire and restore inside the experiment.
	if faults < 4 {
		t.Errorf("saw %d FaultInjected events, want 4 (two flaps, injected+restored)", faults)
	}
}
