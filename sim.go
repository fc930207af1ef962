package mfc

import (
	"context"
	"fmt"
	"time"

	"mfc/internal/content"
	"mfc/internal/core"
	"mfc/internal/netsim"
	"mfc/internal/scenario"
	"mfc/internal/websim"
)

// SimClientSpec describes one simulated wide-area client.
type SimClientSpec = core.SimClientSpec

// KernelStats are the discrete-event kernel's counters (Session.Kernel).
type KernelStats = netsim.Stats

// SimTarget describes a simulated experiment: the server model, its
// content, background traffic, and the client population. It implements
// Target; a SimTarget run is deterministic in (SimTarget, Config).
type SimTarget struct {
	// Server is the installation under test (use a Preset* or hand-build).
	Server ServerConfig
	// Site is the hosted content (required).
	Site *Site
	// Background is the non-MFC workload during the experiment (zero Rate
	// disables it).
	Background BackgroundConfig
	// Clients is the number of simulated PlanetLab clients (default 65,
	// the paper's validation population). Ignored when Specs is set.
	Clients int
	// LAN places the clients on the target's LAN (§3 lab setting) instead
	// of the wide area.
	LAN bool
	// Specs, when non-nil, generates the client population against the
	// simulation environment — for populations that reference simulation
	// entities, e.g. a shared middle bottleneck link (§2.2.3's confound).
	// Takes precedence over scenario RTT bands and Clients/LAN.
	Specs func(env *netsim.Env) []SimClientSpec
	// Scenario wraps the run's environment with scenario/chaos effects
	// (loss, rate limiting, CDN tiers, RTT bands, scheduled faults...).
	// nil is the clean environment; a scenario-wrapped run is still a pure
	// function of (SimTarget, Config) — the scenario only redirects which
	// deterministic run happens. When the scenario declares RTT bands they
	// generate the client population (unless Specs overrides).
	Scenario *Scenario
	// Seed drives every random choice (default 1). The same SimTarget and
	// Config always produce the same Result.
	Seed int64
	// CommandLoss and PollLoss are UDP control-message loss probabilities.
	CommandLoss float64
	PollLoss    float64

	// NoAccessLog disables the simulated server's access log. The log is
	// on by default (arrival-spread analyses read it); campaign-scale runs
	// switch it off to keep memory flat.
	NoAccessLog bool
	// MonitorPeriod sets the atop-style resource monitor's sampling
	// period: 0 means the 1s default, negative disables the monitor
	// (campaign-scale runs).
	MonitorPeriod time.Duration
}

// open implements Target.
func (t SimTarget) open(_ context.Context, cfg Config, ro *runOptions) (*binding, error) {
	if t.Site == nil {
		return nil, fmt.Errorf("mfc: SimTarget.Site is required")
	}
	seed := t.Seed
	if seed == 0 {
		seed = 1
	}
	scen := t.Scenario
	if err := scen.Validate(); err != nil {
		return nil, fmt.Errorf("mfc: SimTarget.Scenario: %w", err)
	}
	serverCfg := scen.WrapServer(t.Server)
	env := netsim.NewEnv(seed)
	server := websim.NewServer(env, serverCfg, t.Site)
	if !t.NoAccessLog {
		server.EnableAccessLog()
	}

	// Population precedence: Specs > scenario RTT bands > Clients/LAN.
	var specs []SimClientSpec
	if t.Specs != nil {
		specs = t.Specs(env)
	}
	if specs == nil {
		n := t.Clients
		if n <= 0 {
			n = 65
		}
		if s := scen.Specs(seed, n); s != nil {
			specs = s
		} else if t.LAN {
			specs = core.LANSpecs(env, n)
		} else {
			specs = core.PlanetLabSpecs(env, n)
		}
	}
	plat := core.NewSimPlatform(env, server, specs)
	plat.CommandLoss = t.CommandLoss
	plat.PollLoss = t.PollLoss

	bg := websim.StartBackground(env, server, t.Background)
	var mon *websim.Monitor
	if t.MonitorPeriod >= 0 {
		mon = websim.NewMonitor(env, server, t.MonitorPeriod)
	}

	var ctl *scenario.Controller
	if scen != nil {
		// Emit reads ro.observer at event time: ScenarioApplied fires here
		// (before any stage), FaultInjected from driver callbacks mid-run,
		// both through the fully composed observer chain.
		ctl = scen.Start(scenario.Hooks{
			Env: env, Server: server, Background: bg,
			Emit: func(ev core.Event) {
				if ro.observer != nil {
					ro.observer(ev)
				}
			},
		})
	}

	return &binding{
		platform: plat,
		fetcher:  content.SiteFetcher{Site: t.Site},
		host:     t.Site.Host,
		base:     t.Site.Base,
		execute: func(body func()) {
			env.Go("coordinator", func(p *netsim.Proc) {
				plat.Bind(p)
				body()
				bg.Stop()
				if ctl != nil {
					ctl.Stop()
				}
				if mon != nil {
					mon.Stop()
				}
			})
			env.Run(0)
		},
		finish: func(r *Session) {
			r.Server = server
			r.Monitor = mon
			r.VirtualElapsed = env.Now()
			r.Kernel = env.Stats()
			if scen != nil && r.Result != nil {
				r.Result.Scenario = scen.Label()
			}
		},
		close: func() {},
	}, nil
}
