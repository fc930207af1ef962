// Command mfc-campaign plans, runs, resumes and reports durable
// measurement campaigns: §5-style population studies at 10k+ sites, with
// every completed site streamed to an append-only sharded result store so
// a killed campaign resumes where it stopped and reports identically.
//
// Usage:
//
//	mfc-campaign plan   -dir DIR -bands all|b1,b2 -stages base,query,large [-scenarios s1,s2] -sites N [-seed S] [-name NAME]
//	mfc-campaign run    -dir DIR [-workers N] [-halt-after N] [-quiet] [-metrics :9090]
//	mfc-campaign resume -dir DIR [-workers N] [-quiet] [-metrics :9090]
//	mfc-campaign work   -dir DIR | -join ADDR [-workers N] [-owner ID] [-ttl D] [-poll D] [-halt-after N] [-quiet] [-metrics :9090]
//	mfc-campaign serve  -dir DIR -listen ADDR [-ttl D] [-until-done]
//	mfc-campaign report -dir DIR [-dir DIR ...]
//	mfc-campaign analyze -dir DIR [-dir DIR ...] [-json] [-no-figures]
//	mfc-campaign merge  -out DIR -dir DIR [-dir DIR ...]
//	mfc-campaign trace  -dir DIR [-dir DIR ...] [-out FILE]
//
// -metrics ADDR serves, for run/resume/work, the live campaign surface
// (analyze.Live): Prometheus text metrics on /metrics, a JSON progress
// snapshot (per-band done/pending, session rate, ETA, shard lease churn,
// whole-store completion) on /progress, the store's analytics document on
// /analyze.json, the fleet timeline with straggler detection on
// /fleet.json, Go profiling on /debug/pprof/, and one self-refreshing
// HTML page over all three feeds on /. Session counters read the same
// tracker state that renders the terminal progress line, and every
// whole-store number comes from one cached store scan, so the surfaces
// cannot drift apart. -metrics-hold keeps the server up after the
// campaign ends so the terminal counter values can still be scraped;
// POST /quit releases the hold early.
//
// Every run/resume/work process also records wall-clock spans — shard
// claims, job execution, heartbeats, fence events, idle waits — into
// <dir>/spans/ (or, for -join workers, ships them to the control plane).
// `trace` merges those spills into one Chrome trace-event JSON file
// loadable in Perfetto or chrome://tracing: one process track per worker,
// one thread track per shard, so stragglers and fenced takeovers are
// visible as wall-clock geometry.
//
// `run`, `resume` and `work -dir` are one worker engine: each skips every
// job that already holds a record and claims the remaining result shards
// via crash-safe leases, so any number of them (on one host, or on many
// over a shared filesystem) cooperate on disjoint shards, survive kill -9
// of any peer through stale-lease takeover, and append to the same store.
// `resume` is `run` under the name that says what it is for; `work` adds
// the fleet flags (-owner, -ttl, -poll, -join) and reports its own shards
// where run/resume report the whole campaign.
// `serve` lifts the same protocol onto HTTP: one control plane owns the
// plan and the store, and workers on any host join it with `work -join
// ADDR` — no shared filesystem — receiving work grants that carry a
// fence token (a per-shard grant counter), heartbeating them, and
// uploading records as they complete. Workers that stop heartbeating are
// presumed dead and their shards re-granted; a fenced worker's late
// uploads are refused with 410.
// `report` merges one or many stores of the same plan; `merge` writes the
// consolidated store to a fresh directory. However the jobs were split,
// killed or resumed, the report is byte-identical to an uninterrupted
// single-process run (main_test.go holds this to literal comparisons over
// real worker and `serve` processes, one killed -9 mid-shard). When a read
// passes over shard-file lines — torn by a kill, carrying a job index
// foreign to their shard, or repeating a job — `report`, `analyze` and
// `merge` say so in one "skipped: torn=N foreign=N duplicate=N" line on
// stderr; stdout is unaffected.
// `analyze` is the deep read side: it streams the stores' full Result
// payloads into per-cell latency-quantile curves, response-time knees,
// verdict confusion matrices against each group's clean baseline, and
// request/error rollups — as §5-style figures, or with -json as
// deterministic bytes carrying the same byte-identity guarantee as
// report. The same document is served live on /analyze.json, and drawn
// on the live page, by every -metrics listener and `serve` control plane.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"mfc/internal/analyze"
	"mfc/internal/campaign"
	"mfc/internal/campaign/dist"
	"mfc/internal/campaign/dist/lease"
	"mfc/internal/campaign/serve"
	"mfc/internal/clock"
	"mfc/internal/core"
	"mfc/internal/obs"
	"mfc/internal/population"
	"mfc/internal/scenario"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "plan":
		err = cmdPlan(os.Args[2:])
	case "run", "resume", "work":
		err = cmdWorker(os.Args[1], os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "merge":
		err = cmdMerge(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "mfc-campaign: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mfc-campaign: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  mfc-campaign plan   -dir DIR -bands all|b1,b2,... -stages base,query,large [-scenarios s1,s2,...] -sites N [-seed S] [-name NAME] [-shard-jobs N]
  mfc-campaign run    -dir DIR [-workers N] [-halt-after N] [-quiet] [-metrics ADDR [-metrics-hold D]]
  mfc-campaign resume -dir DIR [-workers N] [-quiet] [-metrics ADDR [-metrics-hold D]]
  mfc-campaign work   -dir DIR | -join ADDR [-workers N] [-owner ID] [-ttl D] [-poll D] [-halt-after N] [-quiet] [-metrics ADDR [-metrics-hold D]]
  mfc-campaign serve  -dir DIR -listen ADDR [-ttl D] [-straggler K] [-until-done]
  mfc-campaign report -dir DIR [-dir DIR ...]
  mfc-campaign analyze -dir DIR [-dir DIR ...] [-json] [-no-figures]
  mfc-campaign merge  -out DIR -dir DIR [-dir DIR ...]
  mfc-campaign trace  -dir DIR [-dir DIR ...] [-out FILE]

-metrics serves /metrics (Prometheus), /progress, /analyze.json and
/fleet.json (JSON), /debug/pprof/ and one HTML page over them on ADDR
while the campaign runs; -metrics-hold keeps it up that long afterwards
(POST /quit releases early).

run, resume and work each run one worker of the same engine: start any
number of them on the same campaign dir (shared filesystem included);
they lease disjoint result shards and take over shards of crashed peers.
work -join ADDR joins a control plane over HTTP instead — no shared
filesystem — receiving fenced work grants and uploading records.
serve runs that control plane: it owns the plan and the store, grants
shards to joining workers, re-grants the shards of workers that stop
heartbeating, and serves the same live page on its listener; -until-done
exits once every job has a record.
report over several -dir flags merges stores of one plan; merge writes
the consolidated store to -out. report, analyze and merge print one
"skipped: torn=N foreign=N duplicate=N" line on stderr when the scan
passed over torn, foreign-index or repeated shard-file lines.
analyze streams the stores' full results into latency curves, knees,
confusion matrices and error rollups; -json emits deterministic bytes
(byte-identical across kills, resumes and worker splits), -no-figures
drops the ASCII charts from the text output.
trace merges the wall-clock span spills every run/resume/work process
leaves under <dir>/spans/ (and serve collects from -join workers) into
one Chrome trace-event JSON file for Perfetto or chrome://tracing: one
process track per worker, one thread track per shard.

bands:     all, `+strings.Join(bandNames(), ", ")+`
stages:    base, query, large
scenarios: `+strings.Join(scenario.Names(), ", ")+`
  (-scenarios sweeps every band x stage cell across the named
   scenario/chaos environments; omit for clean-only campaigns)`)
}

// dirList collects repeated -dir flags.
type dirList []string

func (d *dirList) String() string { return strings.Join(*d, ",") }
func (d *dirList) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty -dir")
	}
	*d = append(*d, v)
	return nil
}

func bandNames() []string {
	names := make([]string, len(population.Bands))
	for i, b := range population.Bands {
		names[i] = b.String()
	}
	return names
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	var (
		dir       = fs.String("dir", "", "campaign directory (created)")
		bands     = fs.String("bands", "all", "comma-separated band names, or 'all'")
		stages    = fs.String("stages", "base", "comma-separated stages: base, query, large")
		scenarios = fs.String("scenarios", "", "comma-separated scenario names sweeping every cell ('' = clean only; 'clean' names the explicit clean cell)")
		sites     = fs.Int("sites", 100, "sites per band x stage x scenario cell")
		seed      = fs.Int64("seed", 1, "campaign seed (with band and site index, determines every job)")
		name      = fs.String("name", "", "campaign name (default: derived from the matrix)")
		shard     = fs.Int("shard-jobs", 0, "jobs per result shard (default 512); the shard is also the unit distributed workers claim")
	)
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("plan: -dir is required")
	}

	bl, err := parseBands(*bands)
	if err != nil {
		return err
	}
	sl, err := parseStages(*stages)
	if err != nil {
		return err
	}
	scl, err := parseScenarios(*scenarios)
	if err != nil {
		return err
	}
	if *name == "" {
		*name = fmt.Sprintf("%dband-%dstage-%dsites", len(bl), len(sl), *sites)
	}
	plan, err := campaign.NewPlan(*name, bl, sl, scl, *sites, *seed)
	if err != nil {
		return err
	}
	if *shard > 0 {
		plan.ShardJobs = *shard
	}
	if err := plan.Save(*dir); err != nil {
		return err
	}
	fmt.Printf("planned campaign %q in %s: %d cells x %d sites = %d jobs over %d result shards\n",
		plan.Name, *dir, len(plan.Cells), plan.Sites, plan.Jobs(), plan.Shards())
	return nil
}

func parseBands(s string) ([]population.Band, error) {
	if s == "all" {
		return population.Bands, nil
	}
	var out []population.Band
	for _, name := range strings.Split(s, ",") {
		b, err := population.ParseBand(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// parseScenarios resolves the -scenarios sweep list against the scenario
// registry at plan time (satellite of the plan-validation fix: a typo'd
// name fails here, with the known names, never mid-campaign).
func parseScenarios(s string) ([]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []string
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name != "" {
			if _, err := scenario.Parse(name); err != nil {
				return nil, err
			}
		}
		out = append(out, name)
	}
	return out, nil
}

func parseStages(s string) ([]core.Stage, error) {
	var out []core.Stage
	for _, name := range strings.Split(s, ",") {
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "base":
			out = append(out, core.StageBase)
		case "query", "smallquery":
			out = append(out, core.StageSmallQuery)
		case "large", "largeobject":
			out = append(out, core.StageLargeObject)
		default:
			return nil, fmt.Errorf("unknown stage %q (want base, query or large)", name)
		}
	}
	return out, nil
}

// cmdWorker is run, resume and work: one worker of the shared engine. With
// -dir it claims free result shards by lease over the (possibly shared)
// filesystem; with -join (work only) it receives fenced work grants from
// a control plane over HTTP and uploads records, sharing no filesystem
// with the plan. The verbs differ in the flags they offer and in the
// summary line: run/resume account for the whole campaign, work for this
// worker's shards.
func cmdWorker(verb string, args []string) error {
	fs := flag.NewFlagSet(verb, flag.ExitOnError)
	var (
		dir         = fs.String("dir", "", "campaign directory (must hold plan.json)")
		workers     = fs.Int("workers", 0, "per-shard measurement pool bound (0 = GOMAXPROCS)")
		haltAfter   = fs.Int("halt-after", 0, "stop cleanly after N new completions (testing/CI)")
		quiet       = fs.Bool("quiet", false, "suppress the live progress line")
		metrics     = fs.String("metrics", "", "serve /metrics, /progress, /analyze.json, /fleet.json, /debug/pprof and the HTML page on this address (e.g. :9090 or :0)")
		metricsHold = fs.Duration("metrics-hold", 0, "keep the -metrics server up this long after this worker ends (POST /quit releases early)")
		// work only; run and resume keep the defaults.
		join, owner string
		ttl, poll   time.Duration
	)
	if verb == "work" {
		fs.StringVar(&join, "join", "", "control plane address (host:port or URL) to join over HTTP instead of -dir")
		fs.StringVar(&owner, "owner", "", "worker id in lease files (default: host-pid-seq; must be unique per worker)")
		fs.DurationVar(&ttl, "ttl", 0, "lease staleness bound (default 15s; -join workers inherit the server's)")
		fs.DurationVar(&poll, "poll", 0, "base wait when peers hold all pending work; idle waits back off with jitter (default 2s)")
	}
	fs.Parse(args)
	switch {
	case verb == "work" && (*dir == "") == (join == ""):
		return fmt.Errorf("work: exactly one of -dir or -join is required")
	case *dir == "" && join == "":
		return fmt.Errorf("%s: -dir is required", verb)
	case join != "" && *metrics != "":
		return fmt.Errorf("work: -metrics needs the result store; with -join, scrape the control plane's listener instead")
	}

	mon, err := startMonitor(*dir, *metrics, *metricsHold, *quiet)
	if err != nil {
		return err
	}
	if owner == "" {
		// Resolve the default here so the span recorder and the lease files
		// agree on the worker's name.
		owner = lease.DefaultOwner()
	}
	opts := dist.WorkOptions{
		Owner: owner, Workers: *workers, TTL: ttl, Poll: poll, HaltAfter: *haltAfter,
	}
	watched := !*quiet || *metrics != ""
	if watched {
		opts.OnEvent = mon.onEvent
		opts.OnClaim = mon.tr.OnClaim
		opts.OnShardDone = mon.tr.OnShardDone
	}
	// run/resume report the jobs skipped as already complete, so they
	// survey the store even when nothing displays progress.
	var start campaign.StartInfo
	if watched || verb != "work" {
		opts.OnStart = func(info campaign.StartInfo) { start = info; mon.tr.Start(info) }
	}
	// SIGINT/SIGTERM cancel the context instead of killing the process, so
	// the span spiller gets to close open spans as partial and flush them
	// (to the spill file, or to the control plane) — an interrupted worker
	// still yields a loadable trace.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	opts.Spans = obs.NewSpanRecorder(owner, 0)
	if mon.fleet != nil { // the -metrics dashboard's fleet view
		opts.SpanTee = mon.fleet.Ingest
	}
	var st *dist.WorkStatus
	if join != "" {
		st, err = dist.WorkRemote(ctx, join, opts)
	} else {
		st, err = dist.Work(ctx, *dir, opts)
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	mon.close()
	if err != nil {
		return err
	}
	if verb == "work" {
		state := "worker done"
		if st.Halted {
			state = "worker halted"
		}
		fmt.Printf("%s (%s): %d jobs measured (%d errored) over %d shards claimed (%d takeovers, %d sealed, %d fenced)\n",
			state, st.Owner, st.NewlyDone, st.Errored, st.ShardsClaimed, st.Takeovers, st.ShardsFinished, st.Fenced)
		return nil
	}
	// An unhalted worker returns only once every job holds a record; what
	// it neither skipped nor measured itself, concurrent peers did.
	state, done := "completed", st.Total
	if st.Halted {
		state, done = "halted", start.AlreadyDone+st.NewlyDone
	}
	fmt.Printf("%s: %d/%d jobs done (%d skipped as already complete, %d new, %d errored)\n",
		state, done, st.Total, start.AlreadyDone, st.NewlyDone, st.Errored)
	return nil
}

// cmdServe runs the campaign control plane: it owns the plan and the
// result store, grants shards to workers joining with `work -join`, and
// serves the dashboard on the same listener.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		dir       = fs.String("dir", "", "campaign directory (must hold plan.json)")
		listen    = fs.String("listen", "", "listen address for the control plane + dashboard (e.g. :8080 or 127.0.0.1:0)")
		ttl       = fs.Duration("ttl", 0, "grant staleness bound: a worker silent this long is presumed dead and its shard re-granted (default 15s)")
		straggler = fs.Float64("straggler", 0, "straggler threshold multiplier for /fleet.json: an active shard older than K x the median completed-shard duration is flagged (default 4)")
		untilDone = fs.Bool("until-done", false, "exit once every job in the plan has a record (CI/batch mode)")
	)
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("serve: -dir is required")
	}
	if *listen == "" {
		return fmt.Errorf("serve: -listen is required")
	}

	srv, err := serve.New(*dir, serve.Options{TTL: *ttl, StragglerK: *straggler})
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	fmt.Fprintf(os.Stderr, "campaign control plane on http://%s/ (plan %q: %d/%d jobs done)\n",
		ln.Addr(), srv.Plan().Name, srv.Status().Done, srv.Plan().Jobs())

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	var complete <-chan struct{} // nil, so never ready, without -until-done
	if *untilDone {
		complete = srv.Complete()
	}
	go func() {
		select {
		case <-complete:
		case <-srv.WaitQuit():
		case <-ctx.Done():
		}
		cancel()
	}()
	if err := campaign.ServeUntil(ctx, ln, srv.Handler()); err != nil {
		return err
	}
	st := srv.Status()
	fmt.Printf("control plane done: %d/%d jobs stored (%d grants, %d regrants, %d fenced requests, %d records ingested)\n",
		st.Done, st.Total, st.Grants, st.Regrants, st.Fenced, st.Records)
	return nil
}

// cmdMerge consolidates one or many result stores of the same plan into a
// fresh campaign directory.
func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	var dirs dirList
	out := fs.String("out", "", "output campaign directory (fresh)")
	fs.Var(&dirs, "dir", "source store directory (repeatable)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("merge: -out is required")
	}
	if len(dirs) == 0 {
		return fmt.Errorf("merge: at least one -dir is required")
	}
	r, err := campaign.OpenReader(dirs...)
	if err != nil {
		return err
	}
	done, err := dist.MergeReader(r, *out)
	if err != nil {
		return err
	}
	fmt.Printf("merged %d store(s) into %s: %d/%d jobs\n", len(dirs), *out, done, r.Plan().Jobs())
	printSkipped(r.Skipped())
	return nil
}

// printSkipped accounts, on stderr so stdout stays a pure function of the
// records, for the shard-file lines a read passed over.
func printSkipped(s campaign.Skipped) {
	if s != (campaign.Skipped{}) {
		fmt.Fprintf(os.Stderr, "skipped: torn=%d foreign=%d duplicate=%d\n", s.Torn, s.Foreign, s.Duplicate)
	}
}

// liveMonitor couples the shared campaign.Tracker — the single source of
// truth behind the terminal progress line, the /progress JSON and the
// /metrics exposition, so the three can never drift — with the optional
// live surface enabled by -metrics.
type liveMonitor struct {
	tr    *campaign.Tracker
	fleet *campaign.Fleet
	quiet bool

	// Throttle for the terminal line: ~10 lines/sec, final always prints.
	lastLine atomic.Int64

	live    *analyze.Live
	stop    context.CancelFunc
	srvDone chan error
	hold    time.Duration
}

// startMonitor builds the Tracker and, when addr is non-empty, starts the
// live surface on it (use ":0" for an ephemeral port; the bound
// address is printed to stderr).
func startMonitor(dir, addr string, hold time.Duration, quiet bool) (*liveMonitor, error) {
	m := &liveMonitor{quiet: quiet, hold: hold}
	var reg *obs.Registry
	if addr != "" {
		reg = obs.NewRegistry()
	}
	m.tr = campaign.NewTracker(reg)
	if addr != "" {
		m.fleet = campaign.NewFleet(0)
		m.live = analyze.NewLive(dir, reg, m.tr, m.fleet)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("-metrics: %w", err)
		}
		fmt.Fprintf(os.Stderr, "serving metrics/dashboard on http://%s/\n", ln.Addr())
		var ctx context.Context
		ctx, m.stop = context.WithCancel(context.Background())
		m.srvDone = make(chan error, 1)
		go func() { m.srvDone <- campaign.ServeUntil(ctx, ln, m.live) }()
	}
	return m, nil
}

func (m *liveMonitor) onEvent(ev campaign.SiteEvent) {
	m.tr.OnEvent(ev)
	if m.quiet || !ev.Terminal() {
		return
	}
	final := m.tr.Finished()
	now := clock.Real.Now().UnixMilli()
	last := m.lastLine.Load()
	if !final && (now-last < 100 || !m.lastLine.CompareAndSwap(last, now)) {
		return
	}
	fmt.Fprint(os.Stderr, m.tr.Line())
}

// close shuts the live surface down via http.Server.Shutdown (no abandoned
// listener goroutine). With -metrics-hold the server stays up after the
// campaign ends — so a scraper can read the terminal counter values —
// until the hold elapses or something POSTs /quit.
func (m *liveMonitor) close() {
	if m.stop == nil {
		return
	}
	if m.hold > 0 {
		fmt.Fprintf(os.Stderr, "holding dashboard for %v (POST /quit to release)\n", m.hold)
		hold := clock.Real.NewTimer(m.hold)
		select {
		case <-hold.C:
		case <-m.live.WaitQuit():
			hold.Stop()
		}
	}
	m.stop()
	<-m.srvDone
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	var dirs dirList
	fs.Var(&dirs, "dir", "campaign directory (repeatable: merge stores of one plan)")
	fs.Parse(args)
	if len(dirs) == 0 {
		return fmt.Errorf("report: at least one -dir is required")
	}
	plan, sum, err := campaign.Summarize(dirs...)
	if err != nil {
		return err
	}
	printSkipped(sum.Skipped)
	return campaign.RenderReport(os.Stdout, plan, sum)
}

// cmdTrace merges the span spills of one or many campaign directories
// into a single Chrome trace-event JSON file.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	var dirs dirList
	fs.Var(&dirs, "dir", "campaign directory (repeatable: merge span spills from several stores)")
	out := fs.String("out", "", "output trace file ('' or '-' = stdout; open in Perfetto or chrome://tracing)")
	fs.Parse(args)
	if len(dirs) == 0 {
		return fmt.Errorf("trace: at least one -dir is required")
	}
	var spans []obs.Span
	for _, d := range dirs {
		s, err := campaign.ReadSpans(d)
		if err != nil {
			return err
		}
		spans = append(spans, s...)
	}
	if len(spans) == 0 {
		return fmt.Errorf("trace: no spans under %s (run/resume/work record them into <dir>/spans/)", strings.Join(dirs, ", "))
	}

	w, summary := os.Stdout, os.Stdout
	if *out != "" && *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	} else {
		summary = os.Stderr // keep the trace JSON on stdout clean
	}
	if err := obs.WriteFleetTrace(w, spans); err != nil {
		return err
	}
	workers := make(map[string]bool)
	partial := 0
	for i := range spans {
		workers[spans[i].Worker] = true
		if spans[i].Partial {
			partial++
		}
	}
	fmt.Fprintf(summary, "merged trace: %d spans from %d workers (%d partial)\n",
		len(spans), len(workers), partial)
	return nil
}

// cmdAnalyze streams one or many stores of the same plan through the
// analytics engine. Like report, the output is a pure function of (plan,
// union of completed jobs).
func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	var dirs dirList
	fs.Var(&dirs, "dir", "campaign directory (repeatable: merge stores of one plan)")
	asJSON := fs.Bool("json", false, "emit the deterministic JSON document instead of text")
	noFigures := fs.Bool("no-figures", false, "drop the ASCII charts from the text output")
	fs.Parse(args)
	if len(dirs) == 0 {
		return fmt.Errorf("analyze: at least one -dir is required")
	}
	a, err := analyze.Compute(dirs)
	if err != nil {
		return err
	}
	printSkipped(a.Skipped)
	doc := a.Doc()
	if *asJSON {
		b, err := doc.JSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	return analyze.Render(os.Stdout, doc, !*noFigures)
}
