// Command mfc-sim runs a fully simulated MFC experiment against one of the
// paper's server presets (or a tunable custom model) and prints the result
// and assessment. Everything runs in virtual time; a full three-stage
// experiment takes tens of milliseconds of wall clock.
//
// Usage:
//
//	mfc-sim -preset qtnp [-threshold 100ms] [-max 55] [-mr 1] [-seed 1]
//	mfc-sim -preset qtnp -scenario lossy      # wrap the run in a named scenario
//	mfc-sim -preset qtnp -scenario '{"loss":0.02}'
//	mfc-sim -preset qtnp -trace out.json      # Chrome/Perfetto trace in virtual time
//	mfc-sim -preset custom -cores 2 -parse 5ms -dbconns 4 -bandwidth 12.5e6
//	mfc-sim -list
//	mfc-sim -list-scenarios
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"mfc"
	"mfc/internal/obs"
)

// serverPreset is one -preset choice: its name, its -list line and how it
// builds the server and its site for a seed.
type serverPreset struct {
	name, about string
	build       func(seed int64) (mfc.ServerConfig, *mfc.Site)
}

// custom is the custom preset's server; main binds its knobs to the
// -cores/-parse/... flags.
var custom = mfc.ServerConfig{Name: "custom"}

// presets drives both -list and -preset.
var presets = []serverPreset{
	{"qtnp", "top-50 commercial site, non-production twin (§4.1)",
		func(seed int64) (mfc.ServerConfig, *mfc.Site) { return mfc.PresetQTNP(), mfc.PresetQTSite(seed) }},
	{"qtp", "production 16-server load-balanced farm (§4.1)",
		func(seed int64) (mfc.ServerConfig, *mfc.Site) { return mfc.PresetQTP(), mfc.PresetQTSite(seed) }},
	{"univ1", "weak European research-group server (§4.2)",
		func(seed int64) (mfc.ServerConfig, *mfc.Site) { return mfc.PresetUniv1(), mfc.PresetUniv1Site(seed) }},
	{"univ2", "CS department with a years-old thread cap (§4.2)",
		func(seed int64) (mfc.ServerConfig, *mfc.Site) { return mfc.PresetUniv2(), mfc.PresetUniv2Site(seed) }},
	{"univ3", "CS department with a legacy uncached query path (§4.2)",
		func(seed int64) (mfc.ServerConfig, *mfc.Site) { return mfc.PresetUniv3(), mfc.PresetUniv3Site(seed) }},
	{"lab-fcgi", "§3.2 Apache/MySQL lab box, FastCGI backend",
		func(int64) (mfc.ServerConfig, *mfc.Site) { return mfc.PresetLab(mfc.BackendFastCGI) }},
	{"lab-mongrel", "§3.2 lab box, Mongrel backend",
		func(int64) (mfc.ServerConfig, *mfc.Site) { return mfc.PresetLab(mfc.BackendMongrel) }},
	{"custom", "build from the -cores/-parse/-dbconns/... flags",
		func(seed int64) (mfc.ServerConfig, *mfc.Site) {
			return custom, mfc.GenerateSite("custom.example", seed, mfc.SiteGenConfig{})
		}},
}

// listPresets prints one -list line per preset.
func listPresets(w io.Writer) {
	for _, p := range presets {
		fmt.Fprintf(w, "%-11s %s\n", p.name, p.about)
	}
}

func main() {
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.name
	}
	var (
		preset    = flag.String("preset", "qtnp", "server preset: "+strings.Join(names, "|"))
		threshold = flag.Duration("threshold", 100*time.Millisecond, "θ")
		step      = flag.Int("step", 5, "crowd increment")
		max       = flag.Int("max", 55, "maximum crowd size")
		mr        = flag.Int("mr", 1, "MFC-mr parallel requests per client")
		stagger   = flag.Duration("stagger", 0, "inter-arrival spacing (0 = synchronized)")
		clients   = flag.Int("clients", 65, "simulated PlanetLab clients")
		seed      = flag.Int64("seed", 1, "random seed (same seed = same run)")
		bgRate    = flag.Float64("bg", 0, "background traffic rate (requests/sec)")
		scen      = flag.String("scenario", "", "scenario wrapping the run: a name (see -list-scenarios) or inline JSON")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event JSON of the run (virtual time: run, stage and epoch rows) to this file")
		verbose   = flag.Bool("v", false, "log coordinator progress")
		list      = flag.Bool("list", false, "list presets and exit")
		listScen  = flag.Bool("list-scenarios", false, "list scenario presets and exit")
	)
	flag.Float64Var(&custom.Cores, "cores", 2, "custom: CPU cores")
	flag.DurationVar(&custom.ParseCPU, "parse", 2*time.Millisecond, "custom: per-request parse CPU")
	flag.IntVar(&custom.DBConns, "dbconns", 8, "custom: DB connection pool size")
	flag.DurationVar(&custom.QueryBackendTime, "querytime", 10*time.Millisecond, "custom: backend time per query")
	flag.Float64Var(&custom.AccessBandwidth, "bandwidth", 12.5e6, "custom: access bandwidth (bytes/sec)")
	flag.IntVar(&custom.Workers, "workers", 256, "custom: worker pool size")
	flag.Parse()
	if *list {
		listPresets(os.Stdout)
		return
	}
	if *listScen {
		for _, name := range mfc.ScenarioNames() {
			sc, _ := mfc.ParseScenario(name)
			effects := strings.Join(sc.Effects(), " ")
			if sc.DiurnalActive() {
				effects += " (needs -bg)"
			}
			fmt.Printf("%-15s %s\n", name, effects)
		}
		return
	}

	var scenario *mfc.Scenario
	if *scen != "" {
		var err error
		if scenario, err = mfc.ParseScenario(*scen); err != nil {
			fmt.Fprintf(os.Stderr, "mfc-sim: %v\n", err)
			os.Exit(2)
		}
		if scenario.DiurnalActive() && *bgRate <= 0 {
			fmt.Fprintf(os.Stderr, "mfc-sim: -scenario %s modulates background traffic: set -bg above 0\n", *scen)
			os.Exit(2)
		}
	}

	var srv mfc.ServerConfig
	var site *mfc.Site
	for _, p := range presets {
		if p.name == *preset {
			srv, site = p.build(*seed)
		}
	}
	if site == nil {
		fmt.Fprintf(os.Stderr, "mfc-sim: unknown preset %q (try -list)\n", *preset)
		os.Exit(2)
	}

	cfg := mfc.DefaultConfig()
	cfg.Threshold = *threshold
	cfg.Step = *step
	cfg.MaxCrowd = *max
	cfg.MultiRequest = *mr
	cfg.Stagger = *stagger
	if *clients < cfg.MinClients {
		cfg.MinClients = *clients
	}

	var opts []mfc.RunOption
	if *verbose {
		opts = append(opts, mfc.WithObserver(mfc.LogObserver(log.Printf)))
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
		opts = append(opts, mfc.WithObserver(tracer.RunObserver(fmt.Sprintf("%s seed=%d", *preset, *seed))))
	}
	t0 := time.Now()
	run, err := mfc.Run(context.Background(), mfc.SimTarget{
		Server:     srv,
		Site:       site,
		Clients:    *clients,
		Seed:       *seed,
		Background: mfc.BackgroundConfig{Rate: *bgRate},
		Scenario:   scenario,
	}, cfg, opts...)
	if err != nil {
		log.Fatalf("mfc-sim: %v", err)
	}
	if tracer != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("mfc-sim: %v", err)
		}
		if err := tracer.WriteJSON(f); err != nil {
			log.Fatalf("mfc-sim: writing trace: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("mfc-sim: writing trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (load in Perfetto or chrome://tracing)\n", *traceOut)
	}
	fmt.Println(run.Profile)
	fmt.Print(run.Result)
	fmt.Println()
	fmt.Print(mfc.Assess(run.Result))
	fmt.Println(mfc.CompareStages(run.Result))
	// Simulation implies a cooperating, instrumented target (§2.3), so the
	// black-box inference can be checked against actual resource state.
	fmt.Println()
	fmt.Print(mfc.RenderAttribution(mfc.AttributeResources(run)))
	fmt.Printf("\n(%v of virtual time simulated in %v; target served %d requests, refused %d)\n",
		run.VirtualElapsed.Round(time.Second), time.Since(t0).Round(time.Millisecond),
		run.Server.Served(), run.Server.Refused())
}
