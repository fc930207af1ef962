package core

import (
	"context"
	"testing"
	"time"

	"mfc/internal/content"
	"mfc/internal/netsim"
	"mfc/internal/websim"
)

// simStage runs one stage against a tiny strong server and returns it.
func simStage(t *testing.T, mutate func(*SimPlatform, []SimClientSpec), cfg Config, stage Stage) *StageResult {
	t.Helper()
	env := netsim.NewEnv(4)
	site, err := content.NewSite("s", "/index.html", []content.Object{
		{URL: "/index.html", Kind: content.KindText, Size: 2048,
			Links: []string{"/big.bin", "/q?x=1"}},
		{URL: "/big.bin", Kind: content.KindBinary, Size: 200_000},
		{URL: "/q?x=1", Kind: content.KindQuery, Size: 400, Dynamic: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	server := websim.NewServer(env, websim.Config{
		AccessBandwidth: 1.25e9, Workers: 2048, Backlog: 2048, Cores: 8,
		ParseCPU: 100 * time.Microsecond,
	}, site)
	specs := PlanetLabSpecs(env, 60)
	plat := NewSimPlatform(env, server, specs)
	if mutate != nil {
		mutate(plat, specs)
	}
	prof, err := content.Crawl(context.Background(), content.SiteFetcher{Site: site},
		site.Host, site.Base, content.CrawlConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var sr *StageResult
	env.Go("coordinator", func(p *netsim.Proc) {
		plat.Bind(p)
		coord := New(plat, cfg)
		if err := coord.Register(); err != nil {
			panic(err)
		}
		sr = coord.RunStage(context.Background(), stage, prof)
	})
	env.Run(0)
	return sr
}

func simCfg() Config {
	cfg := DefaultConfig()
	cfg.MinClients = 50
	cfg.MaxCrowd = 30
	cfg.Threshold = time.Hour
	return cfg
}

func TestSimEpochsRecordArrivalSpread(t *testing.T) {
	sr := simStage(t, nil, simCfg(), StageBase)
	for _, e := range sr.Epochs {
		if e.Crowd < 2 {
			continue
		}
		if e.Spread90 <= 0 {
			t.Errorf("epoch crowd %d: no arrival spread recorded", e.Crowd)
		}
		if e.Spread90 > 100*time.Millisecond {
			t.Errorf("epoch crowd %d: spread %v too loose for the scheduler", e.Crowd, e.Spread90)
		}
		if e.ArriveAt <= 0 || e.Done <= e.ArriveAt {
			t.Errorf("epoch timestamps wrong: %+v", e)
		}
	}
}

func TestSimMultiRequestSampleCounts(t *testing.T) {
	cfg := simCfg()
	cfg.MultiRequest = 3
	sr := simStage(t, nil, cfg, StageBase)
	for _, e := range sr.Epochs {
		if e.Scheduled != e.Crowd*3 {
			t.Errorf("crowd %d: scheduled %d, want %d", e.Crowd, e.Scheduled, e.Crowd*3)
		}
		if e.Received != e.Scheduled {
			t.Errorf("crowd %d: received %d of %d (no loss configured)",
				e.Crowd, e.Received, e.Scheduled)
		}
	}
}

func TestSimPollLossDropsWholeClients(t *testing.T) {
	cfg := simCfg()
	sr := simStage(t, func(p *SimPlatform, _ []SimClientSpec) {
		p.PollLoss = 0.5
	}, cfg, StageBase)
	lost := 0
	for _, e := range sr.Epochs {
		if e.Received < e.Scheduled {
			lost++
		}
	}
	if lost == 0 {
		t.Error("50% poll loss lost nothing")
	}
}

func TestSimLargeObjectTransfersBytes(t *testing.T) {
	cfg := simCfg()
	cfg.MaxCrowd = 10
	sr := simStage(t, nil, cfg, StageLargeObject)
	if len(sr.Epochs) == 0 {
		t.Fatal("no epochs")
	}
	// Every sample in a GET stage should carry the body size; verify via
	// the recorded Received counts and absence of errors.
	for _, e := range sr.Epochs {
		if e.Errors > 0 {
			t.Errorf("crowd %d: %d errored samples on a strong server", e.Crowd, e.Errors)
		}
	}
}

func TestSimBaselineFailureDropsClient(t *testing.T) {
	// A client whose bandwidth is absurdly low times out its baseline for
	// the large object and must be dropped rather than poisoning epochs.
	env := netsim.NewEnv(4)
	site, _ := content.NewSite("s", "/index.html", []content.Object{
		{URL: "/index.html", Kind: content.KindText, Size: 1024, Links: []string{"/big.bin"}},
		{URL: "/big.bin", Kind: content.KindBinary, Size: 1_000_000},
	})
	server := websim.NewServer(env, websim.Config{AccessBandwidth: 1.25e9}, site)
	specs := PlanetLabSpecs(env, 55)
	specs[0].Bandwidth = 10 // 10 B/s: the 1MB baseline takes >10s
	plat := NewSimPlatform(env, server, specs)
	prof, err := content.Crawl(context.Background(), content.SiteFetcher{Site: site},
		site.Host, site.Base, content.CrawlConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MinClients = 50
	cfg.MaxCrowd = 20
	cfg.Threshold = time.Hour
	var sr *StageResult
	var nClients int
	env.Go("coordinator", func(p *netsim.Proc) {
		plat.Bind(p)
		coord := New(plat, cfg)
		if err := coord.Register(); err != nil {
			panic(err)
		}
		sr = coord.RunStage(context.Background(), StageLargeObject, prof)
		nClients = len(coord.Clients())
	})
	env.Run(0)
	if nClients != 54 {
		t.Errorf("clients after delay computation = %d, want 54 (one dropped)", nClients)
	}
	if sr.Verdict != VerdictNoStop {
		t.Errorf("verdict = %v", sr.Verdict)
	}
}

func TestPlanetLabSpecsShape(t *testing.T) {
	env := netsim.NewEnv(1)
	specs := PlanetLabSpecs(env, 100)
	if len(specs) != 100 {
		t.Fatalf("specs = %d", len(specs))
	}
	ids := map[string]bool{}
	for _, s := range specs {
		if ids[s.ID] {
			t.Fatalf("duplicate id %s", s.ID)
		}
		ids[s.ID] = true
		if s.TargetRTT < 10*time.Millisecond || s.TargetRTT > 300*time.Millisecond {
			t.Errorf("RTT %v outside the PlanetLab-like range", s.TargetRTT)
		}
		if s.Bandwidth < 1e6 {
			t.Errorf("bandwidth %v too low", s.Bandwidth)
		}
	}
}

func TestLANSpecsShape(t *testing.T) {
	env := netsim.NewEnv(1)
	for _, s := range LANSpecs(env, 10) {
		if s.TargetRTT > time.Millisecond {
			t.Errorf("LAN RTT %v too high", s.TargetRTT)
		}
	}
}
