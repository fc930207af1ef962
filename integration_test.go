package mfc

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"mfc/internal/content"
	"mfc/internal/core"
	"mfc/internal/labtarget"
	"mfc/internal/websim"
)

// TestLiveInProcessEndToEnd runs the full live pipeline with no simulation:
// one mfc.Run against a LiveTarget — a real instrumented HTTP target, the
// profiling crawl over net/http, and a goroutine crowd driven by the
// coordinator. The target's linear model adds 4ms per pending request, so
// a 60ms threshold must confirm around crowd 15-30.
func TestLiveInProcessEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live integration takes a few seconds of wall time")
	}
	site := content.Generate("live-int", 11, content.GenConfig{Pages: 15, Queries: 8})
	target := labtarget.New(site, websim.LinearModel{Slope: 4 * time.Millisecond})
	target.EnableAccessLog()
	ts := httptest.NewServer(target)
	defer ts.Close()

	cfg := DefaultConfig()
	cfg.Threshold = 60 * time.Millisecond
	cfg.Step = 5
	cfg.MaxCrowd = 40
	cfg.MinClients = 40
	cfg.EpochGap = 100 * time.Millisecond
	cfg.RequestTimeout = 1500 * time.Millisecond
	cfg.ScheduleGuard = 150 * time.Millisecond

	run, err := Run(context.Background(), LiveTarget{
		URL:      ts.URL,
		Clients:  40,
		CrawlMax: 100,
	}, cfg, WithStage(StageBase))
	if err != nil {
		t.Fatal(err)
	}
	if !run.Profile.HasSmallQuery() {
		t.Fatal("crawl found no queries on the lab target")
	}
	sr := run.Result.Stages[0]
	if sr.Verdict != VerdictStopped {
		t.Fatalf("verdict = %v, want Stopped (4ms × crowd crosses 60ms)", sr.Verdict)
	}
	if sr.StoppingCrowd < 15 || sr.StoppingCrowd > 30 {
		t.Errorf("StoppingCrowd = %d, want 15-30", sr.StoppingCrowd)
	}
	if target.Served() == 0 {
		t.Error("target served no requests")
	}
	if run.URL != ts.URL {
		t.Errorf("Session.URL = %q, want %q", run.URL, ts.URL)
	}
}

// TestLabTargetEndToEnd drives mfc.Run against a LabTarget: the API starts
// its own instrumented server, and the Session exposes it.
func TestLabTargetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("lab integration takes a few seconds of wall time")
	}
	site := content.Generate("lab-int", 13, content.GenConfig{Pages: 10, Queries: 5})
	cfg := DefaultConfig()
	cfg.Threshold = time.Hour // trace only: keep the test about plumbing
	cfg.Step = 4
	cfg.MaxCrowd = 8
	cfg.MinClients = 10
	cfg.EpochGap = 50 * time.Millisecond
	cfg.RequestTimeout = 1500 * time.Millisecond
	cfg.ScheduleGuard = 100 * time.Millisecond

	run, err := Run(context.Background(), LabTarget{
		Site:    site,
		Model:   LinearModel{Slope: 2 * time.Millisecond},
		Clients: 10,
	}, cfg, WithStage(StageBase))
	if err != nil {
		t.Fatal(err)
	}
	if run.Lab == nil {
		t.Fatal("Session.Lab missing")
	}
	if run.Lab.Served() == 0 {
		t.Error("lab target served no requests")
	}
	if len(run.Result.Stages[0].Epochs) == 0 {
		t.Error("no epochs against the lab target")
	}
	if run.URL == "" {
		t.Error("Session.URL missing")
	}
}

// TestRunSimulatedStage exercises a single simulated stage and the
// simulation handles its Session carries.
func TestRunSimulatedStage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCrowd = 30
	run, err := Run(context.Background(), SimTarget{
		Server: PresetQTNP(), Site: PresetQTSite(7), Clients: 60, Seed: 5,
	}, cfg, WithStage(StageBase))
	if err != nil {
		t.Fatal(err)
	}
	sr := run.Result.Stages[0]
	if len(sr.Epochs) == 0 {
		t.Fatal("no epochs")
	}
	if run.Profile == nil || run.Server == nil || run.Monitor == nil {
		t.Error("Session handles missing")
	}
	if run.VirtualElapsed <= 0 {
		t.Error("no virtual time elapsed")
	}
	if run.Result.Stage(StageBase) != sr {
		t.Error("Result does not contain the stage")
	}
}

// TestSimTargetRequiresSite checks input validation.
func TestSimTargetRequiresSite(t *testing.T) {
	if _, err := Run(context.Background(), SimTarget{Server: PresetQTNP()}, DefaultConfig()); err == nil {
		t.Error("nil site accepted")
	}
	if _, err := Run(context.Background(), SimTarget{}, DefaultConfig(), WithStage(StageBase)); err == nil {
		t.Error("nil site accepted by a single-stage run")
	}
}

// TestCommandLossShrinksCrowd: with heavy UDP command loss the received
// sample counts drop below the scheduled counts, as in Table 2.
func TestCommandLossShrinksCrowd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threshold = time.Hour
	cfg.MaxCrowd = 40
	run, err := Run(context.Background(), SimTarget{
		Server: PresetQTP(), Site: PresetQTSite(7), Clients: 60, Seed: 5,
		CommandLoss: 0.25,
	}, cfg, WithStage(StageBase))
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, e := range run.Result.Stages[0].Epochs {
		if e.Received < e.Scheduled {
			lost++
		}
	}
	if lost == 0 {
		t.Error("25% command loss produced no shrunken epochs")
	}
}

// TestMeasurersThroughFacade drives the measurer extension via the public
// API against a simulated target.
func TestMeasurersThroughFacade(t *testing.T) {
	srvCfg, site := PresetLab(BackendMongrel)
	cfg := DefaultConfig()
	cfg.Threshold = time.Hour
	cfg.MaxCrowd = 30
	cfg.Measurers = []core.Request{{Method: "HEAD", URL: "/index.html"}}
	cfg.MeasurerReplicas = 2
	run, err := Run(context.Background(), SimTarget{
		Server: srvCfg, Site: site, Clients: 60, LAN: true, Seed: 9,
	}, cfg, WithStage(StageLargeObject))
	if err != nil {
		t.Fatal(err)
	}
	sr := run.Result.Stages[0]
	withMeasurers := 0
	for _, e := range sr.Epochs {
		if len(e.MeasurerMedians) > 0 {
			withMeasurers++
		}
	}
	if withMeasurers != len(sr.Epochs) {
		t.Errorf("measurer medians on %d of %d epochs", withMeasurers, len(sr.Epochs))
	}
}

// TestAssessOnSimResult: full pipeline from simulation to assessment.
func TestAssessOnSimResult(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCrowd = 50
	run, err := Run(context.Background(), SimTarget{
		Server: PresetUniv3(), Site: PresetUniv3Site(5), Clients: 65, Seed: 99,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := Assess(run.Result)
	if a.DDoS.String() != "highly-vulnerable" {
		t.Errorf("univ3 DDoS grade = %v, want highly-vulnerable (weak query path, strong link)", a.DDoS)
	}
}

// TestStaggerViaFacade: the staggered extension flows through SimTarget.
func TestStaggerViaFacade(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCrowd = 30
	cfg.Stagger = 200 * time.Millisecond
	run, err := Run(context.Background(), SimTarget{
		Server: PresetUniv1(), Site: PresetUniv1Site(5), Clients: 60, Seed: 3,
	}, cfg, WithStage(StageBase))
	if err != nil {
		t.Fatal(err)
	}
	if sr := run.Result.Stages[0]; sr.Verdict != VerdictNoStop {
		t.Errorf("staggered verdict = %v, want NoStop on the weak server", sr.Verdict)
	}
	// Staggered arrivals must actually be spread out at the target.
	var mfcArrivals []time.Duration
	for _, a := range run.Server.AccessLog() {
		if a.Tag == "mfc" {
			mfcArrivals = append(mfcArrivals, a.At)
		}
	}
	if len(mfcArrivals) == 0 {
		t.Fatal("no MFC arrivals logged")
	}
}
