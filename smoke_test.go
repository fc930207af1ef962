package mfc

import (
	"context"
	"testing"
	"time"
)

// TestSmokeSimulatedExperiment runs a full three-stage experiment against
// the QTNP preset and checks the paper's qualitative outcome: Base stops
// in the low tens, Small Query stops later, Large Object does not stop.
func TestSmokeSimulatedExperiment(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCrowd = 55
	cfg.MinClients = 50
	run, err := Run(context.Background(), SimTarget{
		Server:  PresetQTNP(),
		Site:    PresetQTSite(7),
		Clients: 65,
		Seed:    42,
	}, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res := run.Result
	t.Log("\n" + res.String())

	base := res.Stage(StageBase)
	if base == nil || base.Verdict != VerdictStopped {
		t.Fatalf("Base verdict = %v, want Stopped", base)
	}
	if base.StoppingCrowd < 10 || base.StoppingCrowd > 35 {
		t.Errorf("Base stopping crowd = %d, want 10..35 (paper: 20-25)", base.StoppingCrowd)
	}

	query := res.Stage(StageSmallQuery)
	if query == nil || query.Verdict != VerdictStopped {
		t.Fatalf("SmallQuery verdict = %v, want Stopped", query)
	}
	if query.StoppingCrowd <= base.StoppingCrowd {
		t.Errorf("SmallQuery stop %d should exceed Base stop %d", query.StoppingCrowd, base.StoppingCrowd)
	}

	large := res.Stage(StageLargeObject)
	if large == nil || large.Verdict != VerdictNoStop {
		t.Fatalf("LargeObject verdict = %v, want NoStop", large)
	}
}

// TestSmokeDeterminism: identical SimTarget+Config must give identical
// stage outcomes.
func TestSmokeDeterminism(t *testing.T) {
	run := func() []int {
		cfg := DefaultConfig()
		cfg.MaxCrowd = 30
		cfg.MinClients = 50
		run, err := Run(context.Background(), SimTarget{
			Server: PresetQTNP(), Site: PresetQTSite(7), Clients: 60, Seed: 9,
		}, cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		var stops []int
		for _, sr := range run.Result.Stages {
			stops = append(stops, sr.StoppingCrowd, int(sr.Verdict), sr.TotalRequests)
		}
		return stops
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: run1=%v run2=%v", a, b)
		}
	}
}

// TestSmokeSyntheticLinearTracking checks the §3.1 property: the measured
// median normalized response time tracks the server's synthetic model.
func TestSmokeSyntheticLinearTracking(t *testing.T) {
	model := LinearModel{Slope: 5 * time.Millisecond}
	srv, site := PresetValidation(model)
	cfg := DefaultConfig()
	cfg.MaxCrowd = 60
	cfg.MinClients = 50
	cfg.Threshold = time.Hour // never stop: we want the full curve
	cfg.KeepSamples = true
	run, err := Run(context.Background(), SimTarget{Server: srv, Site: site, Clients: 65, Seed: 3}, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	base := run.Result.Stage(StageBase)
	crowds, medians := base.CurveMedians()
	if len(crowds) < 5 {
		t.Fatalf("too few ramp epochs: %d", len(crowds))
	}
	for i, n := range crowds {
		want := model.Delay(n)
		got := medians[i]
		// Tracking tolerance: ±50% or 15ms absolute, whichever is looser.
		tol := want / 2
		if tol < 15*time.Millisecond {
			tol = 15 * time.Millisecond
		}
		if got < want-tol || got > want+tol {
			t.Errorf("crowd %d: median=%v, model=%v (tol %v)", n, got, want, tol)
		}
	}
}
