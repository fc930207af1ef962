package mfc

// The request-path oracle. Every line of testdata/request_path.golden is
// one simulated experiment reduced by fingerprint (Result JSON, access-log
// hash, virtual elapsed) plus the server's own counters, generated once at
// the commit before the stackless request path landed. The kernel keeps no
// reference implementation to compare against, so these bytes are what
// "unchanged behaviour" means: the differential matrix of
// differential_test.go plus every request-path branch that matrix misses.
// Regenerate only for an intentional behaviour change:
//
//	go test -run TestGoldenRequestPath -update .

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mfc/internal/core"
	"mfc/internal/netsim"
	"mfc/internal/population"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this tree")

type goldenCase struct {
	name   string
	target SimTarget
	cfg    Config
	opts   []RunOption
}

func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	scen := func(name string) *Scenario {
		sc, err := ParseScenario(name)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	config := func(edit func(*Config)) Config {
		cfg := DefaultConfig()
		cfg.MaxCrowd = 40
		cfg.MinClients = 30
		if edit != nil {
			edit(&cfg)
		}
		return cfg
	}
	qtnp := func(seed int64) SimTarget {
		return SimTarget{Server: PresetQTNP(), Site: PresetQTSite(7), Clients: 65, Seed: seed}
	}
	var cases []goldenCase

	// The differential matrix: QTNP x 8 seeds with samples kept, the
	// structurally different presets, the four population bands.
	keep := config(func(c *Config) { c.MaxCrowd = 50; c.MinClients = 50; c.KeepSamples = true })
	for seed := int64(1); seed <= 8; seed++ {
		cases = append(cases, goldenCase{name: fmt.Sprintf("qtnp/seed%d", seed), target: qtnp(seed), cfg: keep})
	}
	lossyCtl := qtnp(13)
	lossyCtl.CommandLoss, lossyCtl.PollLoss = 0.1, 0.1
	cases = append(cases,
		goldenCase{name: "univ3", cfg: config(nil),
			target: SimTarget{Server: PresetUniv3(), Site: PresetUniv3Site(5), Clients: 65, Seed: 11}},
		goldenCase{name: "univ1-lan", cfg: config(nil),
			target: SimTarget{Server: PresetUniv1(), Site: PresetUniv1Site(5), Clients: 40, LAN: true, Seed: 12}},
		goldenCase{name: "qtnp-lossy-control", cfg: config(nil), target: lossyCtl},
	)
	for _, band := range []population.Band{population.Rank1K, population.Rank100K, population.Startup, population.Phishing} {
		for i := 0; i < 2; i++ {
			sample := population.SampleAt(band, i, 77)
			cases = append(cases, goldenCase{name: fmt.Sprintf("band/%s-%d", band, i), cfg: config(nil),
				target: SimTarget{Server: sample.Config, Site: sample.Site, Clients: 40, Seed: sample.MeasureSeed}})
		}
	}

	// MFC-mr: three parallel connections per client (the fan-out path).
	cases = append(cases, goldenCase{name: "mfc-mr", target: qtnp(21),
		cfg: config(func(c *Config) { c.MultiRequest = 3; c.KeepSamples = true })})

	// A shared middle bottleneck behind 55% of the clients (the quantile
	// ablation's population): responses cross a second link.
	middle := qtnp(22)
	middle.Clients = 0
	middle.Specs = func(env *netsim.Env) []SimClientSpec {
		shared := env.NewLink("shared-middle", 2.5e6)
		specs := core.PlanetLabSpecs(env, 60)
		for i := range specs {
			if i%100 < 55 {
				specs[i].Middle = shared
			}
		}
		return specs
	}
	cases = append(cases, goldenCase{name: "middle-link", target: middle,
		cfg:  config(func(c *Config) { c.MaxCrowd = 50; c.MinClients = 50; c.LargeObserveFrac = 0.5; c.KeepSamples = true }),
		opts: []RunOption{WithStage(StageLargeObject)}})

	// The synthetic §3.1 validation server, LAN clients.
	valCfg, valSite := PresetValidation(LinearModel{Slope: 4 * time.Millisecond})
	cases = append(cases, goldenCase{name: "synthetic-linear", cfg: config(func(c *Config) { c.KeepSamples = true }),
		target: SimTarget{Server: valCfg, Site: valSite, Clients: 60, LAN: true, Seed: 23}})

	// FastCGI thrash: fork images exhaust RAM and requests hit the 10s
	// deadline inside the dynamic phase.
	labCfg, labSite := PresetLab(BackendFastCGI)
	cases = append(cases, goldenCase{name: "fastcgi-thrash",
		target: SimTarget{Server: labCfg, Site: labSite, Clients: 130, LAN: true, Seed: 24},
		cfg: config(func(c *Config) {
			c.MaxCrowd = 120
			c.Step = 20
			c.Threshold = time.Hour // trace every crowd size up to the thrash
			c.KeepSamples = true
		}),
		opts: []RunOption{WithStage(StageSmallQuery)}})

	// A tiny worker pool with a lingering close and a short backlog: the
	// crowd queues, is refused with 503s, and slots free late.
	tiny := PresetUniv2()
	tiny.Workers, tiny.Backlog = 6, 8
	cases = append(cases, goldenCase{name: "worker-backlog-hold",
		target: SimTarget{Server: tiny, Site: PresetUniv2Site(5), Clients: 65, Seed: 25},
		cfg:    config(func(c *Config) { c.Threshold = time.Hour; c.KeepSamples = true }),
		opts:   []RunOption{WithStage(StageBase)}})
	// Two slots held 2s each behind a deep backlog: most of the crowd times
	// out in the accept queue and later releases skip the abandoned waiters.
	slow := PresetUniv2()
	slow.Workers, slow.Backlog, slow.WorkerHold = 2, 64, 2*time.Second
	cases = append(cases, goldenCase{name: "worker-queue-timeout",
		target: SimTarget{Server: slow, Site: PresetUniv2Site(5), Clients: 65, Seed: 28},
		cfg:    config(func(c *Config) { c.Threshold = time.Hour; c.KeepSamples = true }),
		opts:   []RunOption{WithStage(StageBase)}})

	// One run per scenario preset family. The limiter presets admit 400
	// req/s, which a 50-client crowd never exceeds; the shaping and reject
	// tiers run at the junk preset's 20 req/s, burst 5, so they fire.
	for _, sc := range []struct {
		scenario *Scenario
		stage    Stage
	}{
		{&Scenario{Name: "shaping-limiter", RateLimit: &ScenarioRateLimit{Rate: 20, Burst: 5}}, StageBase},
		{&Scenario{Name: "reject-limiter", RateLimit: &ScenarioRateLimit{Rate: 20, Burst: 5, Reject: true}}, StageBase},
		{scen("fast-junk-200"), StageBase},
		{scen("cdn"), StageLargeObject},
		{scen("lossy"), StageLargeObject},
		{scen("flaky-link"), StageLargeObject},
		{scen("chaos"), StageLargeObject},
		{flapStorm(), StageLargeObject},
		{scen("flash-crowd"), StageLargeObject},
	} {
		target := SimTarget{Server: PresetUniv1(), Site: PresetUniv1Site(5), Clients: 65, Seed: 26, Scenario: sc.scenario}
		cases = append(cases, goldenCase{name: "scenario/" + sc.scenario.Name, target: target,
			cfg:  config(func(c *Config) { c.MaxCrowd = 50; c.Threshold = time.Hour; c.KeepSamples = true }),
			opts: []RunOption{WithStage(sc.stage)}})
	}
	diurnal := SimTarget{Server: PresetUniv3(), Site: PresetUniv3Site(5), Clients: 65, Seed: 27, Scenario: scen("diurnal"),
		Background: BackgroundConfig{Rate: 12, BurstSize: 25, BurstEvery: 20 * time.Second}}
	cases = append(cases, goldenCase{name: "scenario/diurnal-bursts", target: diurnal, cfg: config(nil)})
	return cases
}

// flapStorm flaps the access link for 4s out of every 9s, so some epochs'
// transfers are in flight when it drops (the flaky-link preset's two flaps
// can miss every epoch).
func flapStorm() *Scenario {
	sc := &Scenario{Name: "flap-storm"}
	for at := 20 * time.Second; at < 4*time.Minute; at += 9 * time.Second {
		sc.Faults = append(sc.Faults, ScenarioFault{Kind: FaultFlap, At: at, Duration: 4 * time.Second})
	}
	return sc
}

func goldenLine(t *testing.T, c goldenCase) string {
	t.Helper()
	run, err := Run(context.Background(), c.target, c.cfg, c.opts...)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	fp := fingerprintOf(t, run)
	sum := sha256.Sum256([]byte(fp.resultJSON))
	srv := run.Server
	return fmt.Sprintf("%s elapsed=%s result=%s/%d trace=%s served=%d refused=%d limited=%d junk=%d edge=%d\n",
		c.name, fp.elapsed, hex.EncodeToString(sum[:8]), len(fp.resultJSON), fp.traceHash[:16],
		srv.Served(), srv.Refused(), srv.RateLimited(), srv.JunkServed(), srv.EdgeHits())
}

// TestGoldenRequestPath compares every case against the checked-in bytes.
func TestGoldenRequestPath(t *testing.T) {
	path := filepath.Join("testdata", "request_path.golden")
	var got bytes.Buffer
	for _, c := range goldenCases(t) {
		got.WriteString(goldenLine(t, c))
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, this tree produces %d", len(wantLines), len(gotLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("request path diverged from the pinned bytes\n  want: %s\n  got:  %s", wantLines[i], gotLines[i])
		}
	}
}
