package mfc_test

import (
	"context"
	"testing"
	"time"

	"mfc"
	"mfc/internal/population"
)

// TestKernelHandoffsPerRequest states the point of the stackless request
// path as a count, not a time: no simulated request runs on a goroutine, so
// a whole experiment performs fewer goroutine handoffs than it serves
// requests. What is left is the coordinator — its epoch sleeps, control
// pings and one wait per client baseline (about 0.4 per request on QTNP;
// a goroutine per request cost about 7).
func TestKernelHandoffsPerRequest(t *testing.T) {
	cfg := mfc.DefaultConfig()
	cfg.MaxCrowd = 50
	run, err := mfc.Run(context.Background(), mfc.SimTarget{
		Server: mfc.PresetQTNP(), Site: mfc.PresetQTSite(7), Clients: 65, Seed: 1,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := run.Kernel
	requests := uint64(len(run.Server.AccessLog()))
	if requests == 0 || k.Dispatched == 0 || k.Inline == 0 || k.Flushes == 0 || k.CalendarPeak == 0 {
		t.Fatalf("kernel counters not populated: %+v for %d requests", k, requests)
	}
	if k.Handoffs > requests {
		t.Errorf("%d goroutine handoffs for %d simulated requests (%.2f per request), want <= 1",
			k.Handoffs, requests, float64(k.Handoffs)/float64(requests))
	}
	if k.Inline < 5*requests {
		t.Errorf("only %d task steps for %d requests; the request path is not running as tasks", k.Inline, requests)
	}
	t.Logf("%d requests: %d entries dispatched, %d handoffs (%.2f/request), %d inline steps, %d waterfills, calendar peak %d",
		requests, k.Dispatched, k.Handoffs, float64(k.Handoffs)/float64(requests), k.Inline, k.Flushes, k.CalendarPeak)
}

// chaosSample is the benchmark ladder's scenario sample — site 0 of the
// rank-1K-10K band at campaign seed 7, the Large Object stage under the
// campaign's default plan — in the named environment ("" is clean). Call
// the returned function to run the job; it reports the kernel's counters.
func chaosSample(t testing.TB, scenarioName string) (run func() mfc.KernelStats) {
	t.Helper()
	var scen *mfc.Scenario
	if scenarioName != "" {
		var err error
		if scen, err = mfc.ParseScenario(scenarioName); err != nil {
			t.Fatal(err)
		}
	}
	sample := population.SampleAt(population.Rank10K, 0, 7)
	target := mfc.SimTarget{
		Server: sample.Config, Site: sample.Site, Clients: 60, Scenario: scen,
		Seed: sample.MeasureSeed, NoAccessLog: true, MonitorPeriod: -1,
	}
	cfg := mfc.DefaultConfig()
	cfg.Threshold, cfg.Step, cfg.MaxCrowd, cfg.MinClients = 100*time.Millisecond, 5, 50, 50
	return func() mfc.KernelStats {
		run, err := mfc.Run(context.Background(), target, cfg, mfc.WithStage(mfc.StageLargeObject))
		if err != nil {
			t.Fatal(err)
		}
		return run.Kernel
	}
}

// TestKernelFlashCrowdCosts states what a flash-crowd job may cost beyond
// the clean one, as counts: thousands of organic visitors arrive, each
// arming a 10 s deadline it cancels within milliseconds, and none of that
// shows as goroutine handoffs (the arrival loop is a task, so only the
// coordinator's remain — the same number as under clean) or as calendar
// depth (a canceled timer leaves the heap at once instead of riding it for
// 10 s of virtual time).
func TestKernelFlashCrowdCosts(t *testing.T) {
	clean := chaosSample(t, "")()
	crowd := chaosSample(t, "flash-crowd")()
	if crowd.Handoffs != clean.Handoffs {
		t.Errorf("flash-crowd job made %d goroutine handoffs, the clean job %d; the generators must add none",
			crowd.Handoffs, clean.Handoffs)
	}
	if crowd.CalendarPeak > 128 {
		t.Errorf("calendar peaked at %d entries under flash-crowd, want <= 128 live entries", crowd.CalendarPeak)
	}
	if crowd.Canceled == 0 {
		t.Error("no timer was canceled under flash-crowd: Stats.Canceled is not counting")
	}
	if crowd.Dispatched <= clean.Dispatched {
		t.Errorf("flash-crowd dispatched %d entries, clean %d: the crowd did not arrive", crowd.Dispatched, clean.Dispatched)
	}
	t.Logf("clean: %+v", clean)
	t.Logf("flash-crowd: %+v", crowd)
}
