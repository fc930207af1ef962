package campaign

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"mfc"
	"mfc/internal/core"
	"mfc/internal/population"
	"mfc/internal/scenario"
)

// Options tunes one Run invocation: Run is a worker, so they are the
// worker's options.
type Options = WorkOptions

// StartInfo describes a campaign before a worker's first job.
type StartInfo struct {
	Total       int // jobs in the plan
	AlreadyDone int // jobs completed before this invocation
	// PendingByBand counts the remaining jobs per band name (nil for
	// networked workers, which never scan the store).
	PendingByBand map[string]int
}

// SiteEvent is one coordinator event tagged with the campaign job that
// produced it.
type SiteEvent struct {
	Job      int
	Band     string
	Stage    string
	Scenario string // "" for clean cells
	Site     string
	Event    core.Event
}

// Terminal reports whether this is the job's terminal ExperimentFinished
// event — delivered exactly once per job, the unit progress counting and
// halt logic key off.
func (ev SiteEvent) Terminal() bool {
	_, ok := ev.Event.(core.ExperimentFinished)
	return ok
}

// Status summarizes one Run invocation: the worker's own status plus the
// resume accounting.
type Status struct {
	WorkStatus
	AlreadyDone int // completed before this run (resume skip)
}

// Done is the campaign's completion count as this run accounts for it:
// jobs a concurrent peer measured meanwhile are in neither term.
func (st *Status) Done() int { return st.AlreadyDone + st.NewlyDone }

// Run executes (or resumes) the campaign in dir to completion: it is
// WorkDir under a process-unique owner, reported with resume accounting.
// Jobs that already hold a record are skipped; shards a live peer holds —
// another Run, a `work` process — are left to it and picked up only if
// that peer halts or goes stale, so concurrent runs cooperate on disjoint
// shards. Run returns early with ctx's error if the context is canceled.
func Run(ctx context.Context, dir string, opts Options) (*Status, error) {
	var start StartInfo
	onStart := opts.OnStart
	opts.OnStart = func(info StartInfo) {
		start = info
		if onStart != nil {
			onStart(info)
		}
	}
	ws, err := WorkDir(ctx, dir, opts)
	if ws == nil {
		return nil, err
	}
	return &Status{WorkStatus: *ws, AlreadyDone: start.AlreadyDone}, err
}

// Measure runs job j of the plan: generate the site in O(1) from its
// index, simulate one single-stage MFC against it, and package the
// outcome. Everything is derived from (plan, j) — this determinism is what
// lets any worker, in any process, produce the record — and errors are
// captured in the record. onEvent receives the site's tagged coordinator
// events and is guaranteed exactly one terminal ExperimentFinished per
// job, even when the measurement fails before a coordinator runs.
func Measure(plan *Plan, j int, onEvent func(SiteEvent)) *Record {
	cell := plan.Cells[plan.CellOf(j)]
	band, _ := population.ParseBand(cell.Band) // validated at load
	stage, _ := ParseStage(cell.Stage)         // validated at load
	sample := population.SampleAt(band, plan.SiteOf(j), plan.Seed)

	rec := &Record{Job: j, Site: sample.Name, Band: cell.Band, Stage: cell.Stage, Scenario: cell.Scenario}
	// finished needs no lock: mfc.Run delivers every event before it
	// returns (the simulated coordinator joins at calendar exhaustion), so
	// all writes happen-before the read below. A Target whose execute did
	// not join its coordinator goroutine would break this — and the
	// exactly-once guarantee — so don't add one.
	finished := false
	var obs core.Observer
	if onEvent != nil {
		obs = func(ev core.Event) {
			if _, ok := ev.(core.ExperimentFinished); ok {
				finished = true
			}
			onEvent(SiteEvent{Job: j, Band: cell.Band, Stage: cell.Stage, Scenario: cell.Scenario, Site: sample.Name, Event: ev})
		}
	}
	sr, err := measureSample(plan, stage, cell.Scenario, sample, obs)
	if err != nil {
		rec.Verdict = "Error"
		rec.Err = err.Error()
		if onEvent != nil && !finished {
			// The run died before its terminal event (crawl error, panic):
			// synthesize it so every job delivers exactly one.
			onEvent(SiteEvent{Job: j, Band: cell.Band, Stage: cell.Stage, Scenario: cell.Scenario, Site: sample.Name,
				Event: core.ExperimentFinished{Target: sample.Name, Err: err.Error()}})
		}
		return rec
	}
	rec.Verdict = sr.Verdict.String()
	rec.Stop = sr.StoppingCrowd
	rec.FirstExceed = sr.FirstExceed
	rec.Requests = sr.TotalRequests
	rec.SimElapsedNs = int64(sr.Elapsed)
	rec.Result = &core.Result{Target: sample.Name, Stages: []*core.StageResult{sr}}
	return rec
}

// measureSample is the single-site, single-stage measurement §5 performs:
// standard MFC at the plan's θ/step/ceiling against a fresh simulated
// deployment of the sampled server. The run is deliberately lean — no
// access log, no resource monitor — so a 10k-site campaign's memory stays
// flat. Jobs always run to completion (context.Background()): a canceled
// campaign stops claiming new jobs rather than storing aborted partials,
// which would poison resume determinism.
func measureSample(plan *Plan, stage core.Stage, scenarioName string, sample population.SiteSample, obs core.Observer) (res *core.StageResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("campaign: measuring %s: panic: %v", sample.Name, r)
		}
	}()
	cfg := core.DefaultConfig()
	cfg.Threshold = plan.Threshold()
	cfg.Step = plan.Step
	cfg.MaxCrowd = plan.MaxCrowd
	cfg.MinClients = plan.MinClients

	// Re-parse the scenario per job (validated at load): Parse returns a
	// fresh Config, so every job stays a pure function of (plan, j) and no
	// shared mutable scenario state can leak between pool workers.
	var scen *mfc.Scenario
	if scenarioName != "" {
		scen, err = scenario.Parse(scenarioName)
		if err != nil {
			return nil, err
		}
	}

	run, err := mfc.Run(context.Background(), mfc.SimTarget{
		Server: sample.Config, Site: sample.Site, Clients: plan.Clients,
		Scenario: scen,
		Seed:     sample.MeasureSeed, NoAccessLog: true, MonitorPeriod: -1,
	}, cfg, mfc.WithStage(stage), mfc.WithObserver(obs))
	if err != nil {
		return nil, err
	}
	return run.Result.Stages[0], nil
}

// SimElapsed returns the record's simulated duration.
func (r *Record) SimElapsed() time.Duration { return time.Duration(r.SimElapsedNs) }

// ServeUntil runs an http.Server for h on ln until ctx is canceled, then
// drains it via http.Server.Shutdown (bounded by a short grace period)
// and waits for the serve goroutine to exit, so no goroutine outlives the
// call. A clean shutdown returns nil; an accept failure returns the
// server error.
func ServeUntil(ctx context.Context, ln net.Listener, h http.Handler) error {
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err // the listener died on its own; nothing to shut down
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := srv.Shutdown(sctx)
	<-errc // always http.ErrServerClosed after Shutdown
	return err
}
