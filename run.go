package mfc

import (
	"context"
	"fmt"
	"time"

	"mfc/internal/content"
	"mfc/internal/core"
	"mfc/internal/labtarget"
	"mfc/internal/websim"
)

// Target is where an MFC experiment runs. The three implementations cover
// the paper's deployments:
//
//   - SimTarget: a discrete-event model of a web installation, virtual
//     time, deterministic in (target, Config).
//   - LabTarget: a real instrumented HTTP server started in this process,
//     profiled over loopback by an in-process goroutine crowd (§3's lab
//     setting).
//   - LiveTarget: any reachable HTTP server, with the crowd either
//     in-process goroutines or remote UDP-controlled agents (§4's
//     wide-area deployment).
//
// Each target binds a core.Platform plus the profiling fetcher the crawl
// stage needs; Run drives the same coordinator over all of them.
type Target interface {
	// open binds the target and returns the run binding, which owns
	// platform-specific setup/teardown; Run owns the experiment itself.
	open(ctx context.Context, cfg Config, ro *runOptions) (*binding, error)
}

// binding is one bound target: everything Run needs to profile it and
// drive the coordinator, plus the hooks to tear the binding down.
type binding struct {
	platform core.Platform
	fetcher  content.Fetcher
	host     string // Result.Target label (site host or URL)
	base     string // crawl entry path
	crawl    content.CrawlConfig
	// crawlTimeout bounds the profiling stage (0 = none). Real-network
	// targets set it so a dripping server cannot hang the crawl forever.
	crawlTimeout time.Duration

	// execute runs the coordinator body on the platform's execution
	// substrate: inside a simulated process for SimTarget (virtual time
	// advances around it), directly on the calling goroutine for lab and
	// live targets.
	execute func(body func())
	// finish copies platform-specific handles onto the Session.
	finish func(r *Session)
	// close releases sockets and servers; always called, even on error.
	close func()
}

// runOptions collects RunOption state.
type runOptions struct {
	observer Observer
	stage    *Stage
}

// RunOption customizes one Run call.
type RunOption func(*runOptions)

// WithObserver attaches a typed event observer to the run: StageStarted,
// EpochCompleted, MeasurersReserved, CheckPhaseEntered and the terminal
// ExperimentFinished arrive synchronously on the coordinator's goroutine,
// in execution order. Multiple observers compose in registration order.
func WithObserver(o Observer) RunOption {
	return func(ro *runOptions) { ro.addObserver(o) }
}

// WithStage restricts the run to a single request category instead of the
// standard three-stage sequence — the single-category mode the §5
// population studies and the campaign engine use.
func WithStage(s Stage) RunOption {
	return func(ro *runOptions) { ro.stage = &s }
}

func (ro *runOptions) addObserver(o Observer) {
	if o == nil {
		return
	}
	if prev := ro.observer; prev != nil {
		ro.observer = func(ev Event) { prev(ev); o(ev) }
	} else {
		ro.observer = o
	}
}

// Session is the outcome of one Run call: the experiment result, the
// profiling-stage outcome, and whatever handles the target kind exposes
// for cooperative (§2.3) resource attribution.
type Session struct {
	// Result is the experiment outcome; on a canceled run it is the
	// partial result with the interrupted stage tagged VerdictAborted.
	Result *Result
	// Profile is the profiling-stage outcome for the target.
	Profile *Profile

	// URL is the target's reachable address (LabTarget and LiveTarget).
	URL string

	// Server and Monitor are the simulation handles (SimTarget only): the
	// simulated installation and its atop-style resource monitor.
	Server  *websim.Server
	Monitor *websim.Monitor
	// VirtualElapsed is how much simulated time the experiment spanned
	// (SimTarget only).
	VirtualElapsed time.Duration
	// Kernel is the simulation kernel's own counters for the run
	// (SimTarget only): calendar entries dispatched, goroutine handoffs,
	// task steps run in driver context, link waterfills, calendar peak.
	Kernel KernelStats

	// Lab is the in-process instrumented server (LabTarget only).
	Lab *labtarget.Server
}

// Run executes a full MFC experiment against a target: profile it (the
// §2.2.1 crawl), then drive the staged crowd ramp over the target's
// platform. The same call works for simulated, lab and live targets.
//
// ctx cancellation is honored at epoch boundaries: a canceled run returns
// the partial *Session — its Result's interrupted stage tagged
// VerdictAborted — together with ctx's error, so long campaigns and live
// runs abort cleanly without losing what was measured.
func Run(ctx context.Context, t Target, cfg Config, opts ...RunOption) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ro := &runOptions{}
	for _, opt := range opts {
		opt(ro)
	}
	s, err := t.open(ctx, cfg, ro)
	if err != nil {
		return nil, err
	}
	defer s.close()

	// Profiling stage. The crawl precedes the experiment and its cost is
	// not part of any reported measurement (§2.2.1).
	crawlCtx := ctx
	if s.crawlTimeout > 0 {
		var cancel context.CancelFunc
		crawlCtx, cancel = context.WithTimeout(ctx, s.crawlTimeout)
		defer cancel()
	}
	prof, err := content.Crawl(crawlCtx, s.fetcher, s.host, s.base, s.crawl)
	if err != nil {
		return nil, fmt.Errorf("mfc: profiling target: %w", err)
	}

	run := &Session{Profile: prof}
	coord := core.New(s.platform, cfg, core.WithObserver(ro.observer))
	var expErr error
	s.execute(func() {
		if ro.stage != nil {
			run.Result, expErr = coord.RunSingleStage(ctx, s.host, *ro.stage, prof)
		} else {
			run.Result, expErr = coord.RunExperiment(ctx, s.host, prof)
		}
	})
	if s.finish != nil {
		s.finish(run)
	}
	if expErr != nil && run.Result == nil {
		return nil, expErr
	}
	// A canceled run surfaces both the partial result and ctx's error.
	return run, expErr
}
