package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"mfc"
	"mfc/internal/campaign"
	"mfc/internal/content"
	"mfc/internal/core"
	"mfc/internal/netsim"
	"mfc/internal/population"
	"mfc/internal/runner"
	"mfc/internal/scenario"
	"mfc/internal/websim"
)

// perLayer declares the traced pass's metrics: the ladder — each layer
// timed by the benchmark around calls into that layer's exported functions
// — and the span attribution of the workload itself. They carry no bound;
// README.md says which end-to-end metric each should move, on which
// workload. A timing's value is its median; the printed line adds the
// quartiles, the sample count and the highest percentile with at least ten
// samples beyond it.
var perLayer = []metricSpec{
	// netsim: the discrete-event kernel under every simulated request.
	{Name: "netsim.sleep_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.sleep_cycle_gmp1_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.go_spawn_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.timer_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.resource_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.link_wave_us", Unit: "us", Better: "lower"},
	{Name: "netsim.link_stagger_us", Unit: "us", Better: "lower"},
	{Name: "netsim.link_fault_us", Unit: "us", Better: "lower"},
	{Name: "netsim.allocs_per_sleep", Unit: "count", Better: "lower"},
	// websim: one simulated request.
	{Name: "websim.serve_base_us", Unit: "us", Better: "lower"},
	{Name: "websim.serve_query_us", Unit: "us", Better: "lower"},
	{Name: "websim.serve_large_us", Unit: "us", Better: "lower"},
	{Name: "websim.host_us_per_sim_request", Unit: "us", Better: "lower"},
	// core, content, population: one coordinator epoch, the crawl, a site.
	{Name: "core.epoch_us", Unit: "us", Better: "lower"},
	{Name: "core.epochs_per_job", Unit: "count", Better: "lower"},
	{Name: "core.requests_per_epoch", Unit: "count", Better: "lower"},
	{Name: "mfc.profile_us", Unit: "us", Better: "lower"},
	{Name: "population.sample_at_ns", Unit: "ns", Better: "lower"},
	// mfc: one whole experiment (the historical SimulatedExperiment).
	{Name: "mfc.run_us", Unit: "us", Better: "lower"},
	{Name: "mfc.run_gmp1_us", Unit: "us", Better: "lower"},
	{Name: "mfc.gmp_penalty_ratio", Unit: "ratio", Better: "lower"},
	{Name: "mfc.run_allocs", Unit: "count", Better: "lower"},
	{Name: "mfc.run_kb", Unit: "kB", Better: "lower"},
	// scenario: the same site and seed under each chaos preset.
	{Name: "scenario.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "scenario.run_us.clean", Unit: "us", Better: "lower"},
	{Name: "scenario.run_us.lossy", Unit: "us", Better: "lower"},
	{Name: "scenario.run_us.flaky-link", Unit: "us", Better: "lower"},
	{Name: "scenario.run_us.flash-crowd", Unit: "us", Better: "lower"},
	{Name: "scenario.run_us.waf-reject", Unit: "us", Better: "lower"},
	// runner: the shared pool every campaign job goes through.
	{Name: "runner.foreach_ns_per_item", Unit: "ns", Better: "lower"},
	// campaign: a job, a record, the store.
	{Name: "campaign.measure_us", Unit: "us", Better: "lower"},
	{Name: "campaign.measure_chaos_us", Unit: "us", Better: "lower"},
	{Name: "campaign.measure_thin_us", Unit: "us", Better: "lower"},
	{Name: "campaign.alloc_kb_per_job", Unit: "kB", Better: "lower"},
	{Name: "campaign.record_bytes", Unit: "B", Better: "lower"},
	{Name: "campaign.append_us", Unit: "us", Better: "lower"},
	{Name: "campaign.manifest_write_us", Unit: "us", Better: "lower"},
	{Name: "campaign.scan_compact_us_per_krec", Unit: "us", Better: "lower"},
	{Name: "campaign.scan_full_us_per_krec", Unit: "us", Better: "lower"},
	{Name: "campaign.scan_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "campaign.summarize_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.run_thin_jobs_per_s", Unit: "jobs/s", Better: "higher"},
	{Name: "campaign.run_overhead_us_per_job", Unit: "us", Better: "lower"},
	{Name: "campaign.fleet_ingest_ns_per_span", Unit: "ns", Better: "lower"},
	// lease: the file-lease protocol under fleet-file and serve.
	{Name: "lease.acquire_us", Unit: "us", Better: "lower"},
	{Name: "lease.heartbeat_us", Unit: "us", Better: "lower"},
	{Name: "lease.verify_us", Unit: "us", Better: "lower"},
	{Name: "lease.release_us", Unit: "us", Better: "lower"},
	{Name: "lease.takeover_us", Unit: "us", Better: "lower"},
	{Name: "lease.double_win_ratio", Unit: "ratio", Better: "lower"},
	// dist: the worker loop, from its hooks and WorkStatus.
	{Name: "dist.shard_turnaround_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.claim_gap_us", Unit: "us", Better: "lower"},
	{Name: "dist.overhead_us_per_job", Unit: "us", Better: "lower"},
	{Name: "dist.wasted_job_ratio", Unit: "ratio", Better: "lower"},
	{Name: "dist.takeovers", Unit: "count", Better: "lower"},
	{Name: "dist.fenced", Unit: "count", Better: "lower"},
	{Name: "dist.idle_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.merge_ms", Unit: "ms", Better: "lower"},
	// serve: the control plane's handler, called directly and over loopback.
	{Name: "serve.grant_us", Unit: "us", Better: "lower"},
	{Name: "serve.heartbeat_us", Unit: "us", Better: "lower"},
	{Name: "serve.ingest1_us", Unit: "us", Better: "lower"},
	{Name: "serve.ingest64_us_per_rec", Unit: "us", Better: "lower"},
	{Name: "serve.done_us", Unit: "us", Better: "lower"},
	{Name: "serve.status_us", Unit: "us", Better: "lower"},
	{Name: "serve.request_bytes_per_rec", Unit: "B", Better: "lower"},
	{Name: "serve.rtt_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.new_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.regrants", Unit: "count", Better: "lower"},
	{Name: "serve.fenced", Unit: "count", Better: "lower"},
	// analyze, obs, experiments.
	{Name: "analyze.shard_us_per_krec", Unit: "us", Better: "lower"},
	{Name: "analyze.compute_ms", Unit: "ms", Better: "lower"},
	{Name: "analyze.json_ms", Unit: "ms", Better: "lower"},
	{Name: "analyze.doc_bytes", Unit: "B", Better: "lower"},
	{Name: "obs.span_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.span_allocs", Unit: "count", Better: "lower"},
	{Name: "obs.expose_us", Unit: "us", Better: "lower"},
	{Name: "experiments.figure3_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.table1_ms", Unit: "ms", Better: "lower"},
	{Name: "experiments.table3univ3_ms", Unit: "ms", Better: "lower"},
	// The workload's own traced repetition.
	{Name: "trace.self_share.core", Unit: "ratio", Better: "lower"},
	{Name: "trace.self_share.mfc", Unit: "ratio", Better: "lower"},
	{Name: "trace.self_share.campaign", Unit: "ratio", Better: "lower"},
	{Name: "trace.self_share.dist", Unit: "ratio", Better: "lower"},
	{Name: "trace.self_share.serve", Unit: "ratio", Better: "lower"},
	{Name: "trace.self_share.analyze", Unit: "ratio", Better: "lower"},
	{Name: "trace.self_share.idle", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// traceOnly is the part of perLayer that depends on the workload.
func traceOnly() []metricSpec {
	var specs []metricSpec
	for _, s := range perLayer {
		if strings.HasPrefix(s.Name, "trace.") {
			specs = append(specs, s)
		}
	}
	return specs
}

// ladder carries what the per-layer measurements share.
type ladder struct {
	ctx  context.Context
	cfg  config
	set  *metricSet
	root string // temp dirs go here
	// calls is the sample target for cheap operations (the issue's N ≥
	// 200); slice is the time an expensive operation may sample for, so the
	// whole ladder stays inside the traced run's budget. Both shrink under
	// -short, and slice follows -seconds.
	calls    int
	slice    time.Duration
	minCalls int // floor for boxed: a median of three, or one call under -short
}

func newLadder(ctx context.Context, cfg config, set *metricSet, root string) *ladder {
	l := &ladder{ctx: ctx, cfg: cfg, set: set, root: root, calls: 200, minCalls: 3,
		slice: time.Duration(cfg.seconds / 20 * float64(300*time.Millisecond))}
	if cfg.short {
		l.calls, l.slice, l.minCalls = 20, 5*time.Millisecond, 1
	}
	return l
}

// boxed calls fn until the time slice is used up: at least l.minCalls, at
// most l.calls, and returns each call's duration.
func (l *ladder) boxed(fn func(i int) error) ([]time.Duration, error) {
	var out []time.Duration
	start := time.Now()
	for i := 0; i < l.calls && (i < l.minCalls || time.Since(start) < l.slice); i++ {
		t := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t))
	}
	return out, nil
}

// batches runs l.calls batches of `per` operations and returns ns per
// operation for each batch: the way to get a distribution for operations
// too short to time one by one.
func (l *ladder) batches(per int, batch func(per int)) []float64 {
	out := make([]float64, 0, l.calls)
	for i := 0; i < l.calls; i++ {
		t := time.Now()
		batch(per)
		out = append(out, float64(time.Since(t))/float64(per))
	}
	return out
}

func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// atGOMAXPROCS runs fn with the given GOMAXPROCS and restores it.
func atGOMAXPROCS(n int, fn func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// mallocs counts heap allocations and bytes across fn.
func mallocs(fn func()) (count, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// run measures every ladder layer. Order follows the table in README.md.
func (l *ladder) run(log io.Writer) error {
	steps := []struct {
		name string
		fn   func() error
	}{
		{"netsim", l.netsim}, {"websim", l.websim}, {"mfc", l.mfcRun}, {"scenario", l.scenario},
		{"runner", l.runner}, {"campaign.measure", l.measure}, {"campaign.store", l.store},
		{"lease", l.lease}, {"fleet", l.fleetProbe}, {"serve", l.serve}, {"obs", l.obs},
		{"experiments", l.experiments},
	}
	for _, s := range steps {
		t := time.Now()
		if err := s.fn(); err != nil {
			return fmt.Errorf("ladder %s: %w", s.name, err)
		}
		fmt.Fprintf(log, "# ladder %-16s %.2fs\n", s.name, time.Since(t).Seconds())
	}
	return nil
}

func (l *ladder) netsim() error {
	const per = 500
	// sleeper hands measure an environment in which one process sleeps a
	// microsecond at a time, already started and past its first cycles;
	// advancing the clock by n microseconds is n sleep cycles.
	sleeper := func(measure func(cycles func(n int))) {
		env := netsim.NewEnv(1)
		stop := false
		env.Go("sleeper", func(p *netsim.Proc) {
			for !stop {
				p.Sleep(time.Microsecond)
			}
		})
		env.Run(100 * time.Microsecond)
		measure(func(n int) { env.Run(env.Now() + time.Duration(n)*time.Microsecond) })
		stop = true
		env.Run(0)
	}
	sleepCycle := func(name string) {
		sleeper(func(cycles func(int)) { l.set.samples(name, l.batches(per, cycles)) })
	}
	sleepCycle("netsim.sleep_cycle_ns")
	atGOMAXPROCS(1, func() { sleepCycle("netsim.sleep_cycle_gmp1_ns") })
	sleeper(func(cycles func(int)) {
		n, _ := mallocs(func() { cycles(10000) })
		l.set.value("netsim.allocs_per_sleep", n/10000)
	})

	l.set.samples("netsim.go_spawn_ns", l.batches(per, func(per int) {
		env := netsim.NewEnv(1)
		env.Go("spawner", func(p *netsim.Proc) {
			for i := 0; i < per; i++ {
				env.Go("child", func(*netsim.Proc) {})
				p.Sleep(time.Microsecond) // let the child run and die
			}
		})
		env.Run(0)
	}))
	l.set.samples("netsim.timer_ns", l.batches(per, func(per int) {
		env := netsim.NewEnv(1)
		fired := 0
		for i := 0; i < per; i++ {
			env.After(time.Duration(i%97)*time.Microsecond, func() { fired++ })
		}
		env.Run(0)
	}))
	l.set.samples("netsim.resource_cycle_ns", l.batches(per, func(per int) {
		env := netsim.NewEnv(1)
		res := env.NewResource("pool", 1)
		const waiters = 8
		for w := 0; w < waiters; w++ {
			env.Go("waiter", func(p *netsim.Proc) {
				for i := 0; i < per/waiters; i++ {
					res.Acquire(p)
					p.Sleep(time.Microsecond)
					res.Release()
				}
			})
		}
		env.Run(0)
	}))

	wave := func(name string, start func(env *netsim.Env, link *netsim.Link, i int, transfer func(p *netsim.Proc))) {
		var out []float64
		for n := 0; n < l.calls; n++ {
			env := netsim.NewEnv(int64(n + 1))
			link := env.NewLink("bench", 1e9)
			for i := 0; i < 50; i++ {
				i := i
				start(env, link, i, func(p *netsim.Proc) { link.Transfer(p, 1e5, float64(1e6+1e4*i)) })
			}
			t := time.Now()
			env.Run(0)
			out = append(out, us(time.Since(t)))
		}
		l.set.samples(name, out)
	}
	wave("netsim.link_wave_us", func(env *netsim.Env, _ *netsim.Link, _ int, transfer func(*netsim.Proc)) {
		env.Go("wave", transfer)
	})
	wave("netsim.link_stagger_us", func(env *netsim.Env, _ *netsim.Link, i int, transfer func(*netsim.Proc)) {
		env.GoAfter("stagger", time.Duration(i)*time.Millisecond, transfer)
	})
	wave("netsim.link_fault_us", func(env *netsim.Env, link *netsim.Link, i int, transfer func(*netsim.Proc)) {
		env.Go("wave", transfer)
		if i == 0 { // one set of faults per wave, all landing mid-transfer
			env.After(5*time.Millisecond, func() { link.SetDown(true) })
			env.After(10*time.Millisecond, func() { link.SetDown(false) })
			env.After(15*time.Millisecond, func() { link.SetCapacityFactor(0.5) })
			env.After(20*time.Millisecond, func() { link.SetLoss(0.05) })
			env.After(30*time.Millisecond, func() { link.SetCapacityFactor(1); link.SetLoss(0) })
		}
	})
	return nil
}

func (l *ladder) websim() error {
	site := websim.QTSite(l.cfg.seed)
	var query, large *content.Object
	objs := site.Objects()
	for i := range objs {
		if query == nil && objs[i].IsSmallQuery() {
			query = &objs[i]
		}
		if large == nil && objs[i].IsLargeObject() {
			large = &objs[i]
		}
	}
	if query == nil || large == nil {
		return fmt.Errorf("QTSite(%d) lacks a small query or a large object", l.cfg.seed)
	}
	crowd := func(name string, req websim.Request) {
		const clients = 50
		var out []float64
		for n := 0; n < l.calls; n++ {
			env := netsim.NewEnv(int64(n + 1))
			srv := websim.NewServer(env, websim.QTNPConfig(), site)
			for c := 0; c < clients; c++ {
				env.Go("client", func(p *netsim.Proc) { srv.Serve(p, "bench", req) })
			}
			t := time.Now()
			env.Run(0)
			out = append(out, us(time.Since(t))/clients)
		}
		l.set.samples(name, out)
	}
	wan := websim.Request{ClientBW: 1.25e6, ClientRTT: 80 * time.Millisecond}
	base, q, lg := wan, wan, wan
	base.Method, base.URL = "HEAD", site.BasePage().URL
	q.Method, q.URL = "GET", query.URL
	lg.Method, lg.URL = "GET", large.URL
	crowd("websim.serve_base_us", base)
	crowd("websim.serve_query_us", q)
	crowd("websim.serve_large_us", lg)
	return nil
}

// simulatedExperiment is BENCH_results.json's historical unit: a full
// three-stage experiment against QTNP with 65 clients, ramping to 50.
func simulatedExperiment(ctx context.Context, seed int64) error {
	cfg := mfc.DefaultConfig()
	cfg.MaxCrowd = 50
	_, err := mfc.Run(ctx, mfc.SimTarget{
		Server: mfc.PresetQTNP(), Site: mfc.PresetQTSite(7), Clients: 65, Seed: seed,
	}, cfg)
	return err
}

func (l *ladder) mfcRun() error {
	run := func(i int) error { return simulatedExperiment(l.ctx, int64(i+1)) }
	atW, err := l.boxed(run)
	if err != nil {
		return err
	}
	var at1 []time.Duration
	atGOMAXPROCS(1, func() { at1, err = l.boxed(run) })
	if err != nil {
		return err
	}
	w, one := summarize(durations(atW, time.Microsecond)), summarize(durations(at1, time.Microsecond))
	l.set.samples("mfc.run_us", durations(atW, time.Microsecond))
	l.set.samples("mfc.run_gmp1_us", durations(at1, time.Microsecond))
	l.set.value("mfc.gmp_penalty_ratio", w.Median/one.Median)
	const runs = 3
	n, b := mallocs(func() {
		for i := 0; i < runs && err == nil; i++ {
			err = run(i)
		}
	})
	l.set.value("mfc.run_allocs", n/runs)
	l.set.value("mfc.run_kb", b/runs/1024)
	return err
}

func (l *ladder) scenario() error {
	l.set.samples("scenario.parse_ns", l.batches(100, func(per int) {
		for i := 0; i < per; i++ {
			scenario.Parse("flaky-link")
		}
	}))
	// One site, one seed, the run-chaos stage; only the environment differs.
	sample := population.SampleAt(population.Rank10K, 0, l.cfg.seed)
	plan := campaign.DefaultPlan()
	cfg := core.DefaultConfig()
	cfg.Threshold, cfg.Step, cfg.MaxCrowd, cfg.MinClients = plan.Threshold(), plan.Step, plan.MaxCrowd, plan.MinClients
	for _, name := range []string{"clean", "lossy", "flaky-link", "flash-crowd", "waf-reject"} {
		ds, err := l.boxed(func(int) error {
			var scen *mfc.Scenario
			if name != "clean" {
				var err error
				if scen, err = scenario.Parse(name); err != nil {
					return err
				}
			}
			_, err := mfc.Run(l.ctx, mfc.SimTarget{
				Server: sample.Config, Site: sample.Site, Clients: plan.Clients, Scenario: scen,
				Seed: sample.MeasureSeed, NoAccessLog: true, MonitorPeriod: -1,
			}, cfg, mfc.WithStage(core.StageLargeObject))
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		l.set.samples("scenario.run_us."+name, durations(ds, time.Microsecond))
	}
	return nil
}

func (l *ladder) runner() error {
	const items = 10000
	var err error
	samples := make([]float64, 0, 50)
	for i := 0; i < 50 && err == nil; i++ {
		t := time.Now()
		err = runner.ForEach(l.ctx, items, func(context.Context, int) error { return nil }, runner.Shared())
		samples = append(samples, float64(time.Since(t))/items)
	}
	l.set.samples("runner.foreach_ns_per_item", samples)
	return err
}

// measure times campaign.Measure on each workload's plan, jobs spread over
// every cell, and cuts the clean plan's jobs into profile and epoch times.
func (l *ladder) measure() error {
	sz := l.cfg.sizes()
	var clean []*campaign.Record
	for _, m := range []struct{ metric, workload string }{
		{"campaign.measure_us", wlRunClean},
		{"campaign.measure_chaos_us", wlRunChaos},
		{"campaign.measure_thin_us", wlFleetFile},
	} {
		plan, err := planFor(m.workload, sz, l.cfg.seed)
		if err != nil {
			return err
		}
		stride := max(plan.Jobs()/l.calls, 1)
		cut := newJobCutter()
		var onEvent func(campaign.SiteEvent)
		if m.workload == wlRunClean {
			onEvent = func(ev campaign.SiteEvent) { cut.event(ev, time.Now()) }
		}
		var recs []*campaign.Record
		var starts []time.Time
		var ds []time.Duration
		_, allocated := mallocs(func() {
			ds, err = l.boxed(func(i int) error {
				starts = append(starts, time.Now())
				rec := campaign.Measure(plan, (i*stride)%plan.Jobs(), onEvent)
				recs = append(recs, rec)
				if rec.Err != "" {
					return fmt.Errorf("job %d: %s", rec.Job, rec.Err)
				}
				return nil
			})
		})
		if err != nil {
			return err
		}
		l.set.samples(m.metric, durations(ds, time.Microsecond))
		if m.workload != wlRunClean {
			continue
		}
		clean = recs
		l.set.value("campaign.alloc_kb_per_job", allocated/float64(len(ds))/1024)
		var wall time.Duration
		requests, epochs := 0, 0
		var profileUs, epochUs []float64
		for i, jt := range cut.done {
			wall += ds[i]
			requests += recs[i].Requests
			if jt.Stage == 0 {
				continue
			}
			prev := jt.Stage
			profileUs = append(profileUs, float64(prev-starts[i].UnixNano())/1e3)
			for _, e := range jt.Epochs {
				epochUs = append(epochUs, float64(e-prev)/1e3)
				prev = e
			}
			epochs += len(jt.Epochs)
		}
		if requests == 0 || epochs == 0 {
			return fmt.Errorf("%d clean jobs scheduled %d requests in %d epochs", len(ds), requests, epochs)
		}
		l.set.value("websim.host_us_per_sim_request", us(wall)/float64(requests))
		l.set.samples("core.epoch_us", epochUs)
		l.set.samples("mfc.profile_us", profileUs)
		l.set.value("core.epochs_per_job", float64(epochs)/float64(len(ds)))
		l.set.value("core.requests_per_epoch", float64(requests)/float64(epochs))
	}
	l.set.samples("population.sample_at_ns", l.batches(20, func(per int) {
		for i := 0; i < per; i++ {
			population.SampleAt(population.Rank10K, i, l.cfg.seed)
		}
	}))
	return l.appendAndManifest(clean)
}
