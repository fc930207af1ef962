package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"mfc/internal/analyze"
	"mfc/internal/campaign"
	"mfc/internal/campaign/dist"
	"mfc/internal/campaign/serve"
	"mfc/internal/core"
	"mfc/internal/population"
)

// Workload names are normative: BENCHMARK.json, expected.json, the README
// and every later performance claim use exactly these.
const (
	wlRunClean  = "run-clean"
	wlRunChaos  = "run-chaos"
	wlFleetFile = "fleet-file"
	wlFleetHTTP = "fleet-http"
	wlStoreRead = "store-read"
)

var workloadNames = []string{wlRunClean, wlRunChaos, wlFleetFile, wlFleetHTTP, wlStoreRead}

// sizes fixes how much work one repetition is. They are constants of the
// benchmark — never derived from the commit under test — so a number from
// one commit means the same thing on the next.
type sizes struct {
	CleanSites     int `json:"clean_sites"`      // per cell; 4 cells
	ChaosSites     int `json:"chaos_sites"`      // per cell; 4 cells
	ThinSites      int `json:"thin_sites"`       // 1 cell
	ThinShardJobs  int `json:"thin_shard_jobs"`  //
	StoreRecords   int `json:"store_records"`    // 2 cells
	StoreShardJobs int `json:"store_shard_jobs"` //
	ReadPasses     int `json:"read_passes"`      // read-side passes after each simulating repetition
}

var (
	fullSizes  = sizes{CleanSites: 500, ChaosSites: 200, ThinSites: 8000, ThinShardJobs: 32, StoreRecords: 20000, StoreShardJobs: 128, ReadPasses: 3}
	shortSizes = sizes{CleanSites: 8, ChaosSites: 4, ThinSites: 64, ThinShardJobs: 8, StoreRecords: 64, StoreShardJobs: 16, ReadPasses: 1}
)

// quarter is the warm-up size: enough to fault in code paths, page cache
// and the runtime's heap target, a quarter of the cost.
func (s sizes) quarter() sizes {
	q := func(n int) int { return max(n/4, 2) }
	return sizes{q(s.CleanSites), q(s.ChaosSites), q(s.ThinSites), s.ThinShardJobs, q(s.StoreRecords), s.StoreShardJobs, 1}
}

// planFor builds the workload's plan. fleet-file and fleet-http share one
// plan, name included, so their reports must agree byte for byte.
func planFor(workload string, sz sizes, seed int64) (*campaign.Plan, error) {
	switch workload {
	case wlRunClean:
		return campaign.NewPlan("bench-run-clean",
			[]population.Band{population.Rank1K, population.Rank1M},
			[]core.Stage{core.StageBase, core.StageSmallQuery}, nil, sz.CleanSites, seed)
	case wlRunChaos:
		return campaign.NewPlan("bench-run-chaos",
			[]population.Band{population.Rank10K}, []core.Stage{core.StageLargeObject},
			[]string{"lossy", "flaky-link", "flash-crowd", "waf-reject"}, sz.ChaosSites, seed)
	case wlFleetFile, wlFleetHTTP:
		return thinPlan(sz.ThinSites, sz.ThinShardJobs, seed)
	}
	return nil, fmt.Errorf("no plan for workload %q", workload)
}

// thinPlan is the fleet workloads' plan: one-epoch jobs (crowd 5 of 8
// clients) so that claiming, leasing, rescanning and appending — not the
// simulator — are a visible share of the cost.
func thinPlan(sites, shardJobs int, seed int64) (*campaign.Plan, error) {
	p, err := campaign.NewPlan("bench-thin",
		[]population.Band{population.Rank10K}, []core.Stage{core.StageBase}, nil, sites, seed)
	if err != nil {
		return nil, err
	}
	p.MaxCrowd, p.MinClients, p.Clients, p.ShardJobs = 5, 5, 8, shardJobs
	return p, nil
}

// Every execution mode returns how many jobs it measured: Σ NewlyDone over
// its workers. Anything above plan.Jobs() was measured twice — wasted work.

// execRun is the single-process engine.
func execRun(ctx context.Context, dir string, workers int, opts campaign.Options) (int, error) {
	opts.Workers = workers
	st, err := campaign.Run(ctx, dir, opts)
	if err != nil {
		return 0, err
	}
	return st.NewlyDone, nil
}

// fleetPoll is short so the last worker's idle wait does not dominate a
// three-second repetition; TTL stays at its default. Every fleet worker,
// file or HTTP, runs one measurement goroutine.
const fleetPoll = 10 * time.Millisecond

// workerOwner names fleet worker i, file or HTTP.
func workerOwner(i int) string { return fmt.Sprintf("bench-w%d", i) }

// execFleetHTTP runs the control plane on a loopback listener and joins
// `workers` networked workers; wrap lets the traced variant time the
// handler. The clock covers serve.New to Server.Close.
func execFleetHTTP(ctx context.Context, dir string, workers int, tune func(i int, o *dist.WorkOptions), wrap func(http.Handler) http.Handler) (int, *serve.StatusDoc, error) {
	srv, err := serve.New(dir, serve.Options{})
	if err != nil {
		return 0, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return 0, nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	sctx, stop := context.WithCancel(ctx)
	served := make(chan error, 1)
	go func() { served <- campaign.ServeUntil(sctx, ln, h) }()

	addr := ln.Addr().String()
	sts := make([]*dist.WorkStatus, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		o := dist.WorkOptions{Owner: workerOwner(i), Workers: 1, Poll: fleetPoll}
		if tune != nil {
			tune(i, &o)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sts[i], errs[i] = dist.WorkRemote(ctx, addr, o)
		}(i)
	}
	wg.Wait()
	status := srv.Status()
	stop()
	errs = append(errs, <-served, srv.Close())
	measured := 0
	for i, err := range errs {
		if err != nil {
			return measured, &status, fmt.Errorf("fleet-http (worker or server %d): %w", i, err)
		}
		if i < workers {
			measured += sts[i].NewlyDone
		}
	}
	return measured, &status, nil
}

// execute dispatches an untraced repetition of a simulating workload.
func execute(ctx context.Context, workload, dir string, workers int) (int, error) {
	switch workload {
	case wlRunClean, wlRunChaos:
		return execRun(ctx, dir, workers, campaign.Options{})
	case wlFleetFile:
		n, _, err := execFleetFile(ctx, dir, workers, false)
		return n, err
	case wlFleetHTTP:
		n, _, err := execFleetHTTP(ctx, dir, workers, nil, nil)
		return n, err
	}
	return 0, fmt.Errorf("workload %q does not simulate", workload)
}

// digest is the sha256 of one rendered output; text keeps the report so a
// mismatch can name the first differing line.
type digest struct {
	sum  string
	text string
}

// readSide is one pass over a finished store: the three things every user
// of a store does, timed separately, with the bytes they produced.
type readSide struct {
	scan, report, analyze time.Duration
	done                  int
	reportOut, analyzeOut digest
}

// readPass runs Store.Completed → campaign.Report → analyze.Compute+JSON.
func readPass(dir string, plan *campaign.Plan) (readSide, error) {
	var rs readSide
	st, err := campaign.OpenStore(dir, plan.ShardJobs)
	if err != nil {
		return rs, err
	}
	defer st.Close()

	t := time.Now()
	completed, err := st.Completed(plan.Jobs())
	rs.scan = time.Since(t)
	if err != nil {
		return rs, fmt.Errorf("Store.Completed: %w", err)
	}
	rs.done = len(completed)

	var rep bytes.Buffer // hashed after the clock stops
	t = time.Now()
	err = campaign.Report(dir, &rep)
	rs.report = time.Since(t)
	if err != nil {
		return rs, fmt.Errorf("campaign.Report: %w", err)
	}
	rs.reportOut = digestOf(rep.Bytes())
	rs.reportOut.text = rep.String()

	t = time.Now()
	an, err := analyze.Compute([]string{dir})
	var doc []byte
	if err == nil {
		doc, err = an.Doc().JSON()
	}
	rs.analyze = time.Since(t)
	if err != nil {
		return rs, fmt.Errorf("analyze: %w", err)
	}
	rs.analyzeOut = digestOf(doc)
	return rs, nil
}

func digestOf(b []byte) digest {
	sum := sha256.Sum256(b)
	return digest{sum: hex.EncodeToString(sum[:])}
}

// erroredJobs counts records whose measurement failed, from the same fold
// the report uses.
func erroredJobs(dir string) (int, error) {
	_, sum, err := campaign.Summarize(dir)
	if err != nil {
		return 0, err
	}
	idx := campaign.VerdictIndex("Error")
	n := 0
	for _, c := range sum.Cells {
		n += int(c.Verdicts[idx])
	}
	return n, nil
}

// repetition is one timed unit of a workload and everything checked on it.
type repetition struct {
	wall, cpu time.Duration
	jobs      int // attempted
	missing   int // jobs without a valid record afterwards
	errored   int // jobs whose record carries Err
	wasted    int // measurements beyond one per job
	reads     []readSide
}

// simulateOnce saves plan into a fresh directory under root, runs exec on
// it under the clock, then reads the finished store `passes` times. keep
// leaves the directory behind and returns its path.
func simulateOnce(ctx context.Context, root string, plan *campaign.Plan, passes int, keep bool, exec func(dir string) (measured int, err error)) (repetition, string, error) {
	rep := repetition{jobs: plan.Jobs()}
	dir, err := os.MkdirTemp(root, "rep-")
	if err != nil {
		return rep, "", err
	}
	if !keep {
		defer os.RemoveAll(dir)
	}
	if err := plan.Save(dir); err != nil {
		return rep, dir, err
	}
	cpu0, t0 := cpuNow(), time.Now()
	measured, err := exec(dir)
	rep.wall, rep.cpu = time.Since(t0), cpuNow()-cpu0
	if err != nil {
		return rep, dir, err
	}
	rep.wasted = max(measured-plan.Jobs(), 0)
	for i := 0; i < passes; i++ {
		rs, err := readPass(dir, plan)
		if err != nil {
			return rep, dir, err
		}
		rep.reads = append(rep.reads, rs)
	}
	rep.missing = plan.Jobs() - rep.reads[0].done
	if rep.errored, err = erroredJobs(dir); err != nil {
		return rep, dir, err
	}
	return rep, dir, nil
}

// readOnce is store-read's repetition: one pass, the whole pass under the
// clock.
func readOnce(dir string, plan *campaign.Plan) (repetition, error) {
	rep := repetition{jobs: plan.Jobs()}
	cpu0, t0 := cpuNow(), time.Now()
	rs, err := readPass(dir, plan)
	rep.wall, rep.cpu = time.Since(t0), cpuNow()-cpu0
	if err != nil {
		return rep, err
	}
	rep.reads = []readSide{rs}
	rep.missing = plan.Jobs() - rs.done
	return rep, nil
}
