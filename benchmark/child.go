package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"mfc/internal/campaign"
)

// config is one invocation's settings, shared by parent and child.
type config struct {
	workload string  // "" = every workload, each in a re-executed child
	seed     int64   // plan seed: the same seed gives the same inputs
	seconds  float64 // how long the timed phase measures
	short    bool    // smoke size: ≤64 jobs, one repetition
	trace    bool    // per-layer pass instead of the end-to-end one
	noLadder bool    // traced pass without the ladder: the trace.* metrics only
	workers  int     // W = min(nproc, 4): measurement workers and GOMAXPROCS
	dir      string  // the benchmark's own directory (expected.json, out/)
	out      string  // result file to write, "" = none
	updating bool    // -update-expected: the pinned digests are about to be replaced, do not check them
}

func (c config) sizes() sizes {
	if c.short {
		return shortSizes
	}
	return fullSizes
}

// workRoot is where repetitions create their temp dirs: inside the
// benchmark's out/ so nothing is written outside the checkout.
func (c config) workRoot() (string, error) {
	root := c.dir + "/out/tmp"
	return root, os.MkdirAll(root, 0o755)
}

const (
	// minReps is the floor under which a median and its quartiles stop
	// meaning much; a slow machine overruns -seconds rather than go below.
	minReps = 5
	// setupReps: set-up is repeated and its median reported, so that one
	// cold page-cache miss does not read as a set-up regression.
	setupReps = 3
)

// fixture is what set-up leaves for the timed phase.
type fixture struct {
	plan     *campaign.Plan
	storeDir string // store-read: the generated store
}

// setUp builds the workload's fixture and runs the untimed warm-up
// repetition at quarter size. Everything here is setup_s.
func setUp(ctx context.Context, cfg config, root string) (*fixture, error) {
	sz, warm := cfg.sizes(), cfg.sizes().quarter()
	if cfg.workload == wlStoreRead {
		wdir, err := os.MkdirTemp(root, "warm-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(wdir)
		wplan, err := generateStore(wdir, warm.StoreRecords, warm.StoreShardJobs, cfg.seed, nil)
		if err != nil {
			return nil, err
		}
		if _, err := readOnce(wdir, wplan); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(root, "store-")
		if err != nil {
			return nil, err
		}
		plan, err := generateStore(dir, sz.StoreRecords, sz.StoreShardJobs, cfg.seed, nil)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		return &fixture{plan: plan, storeDir: dir}, nil
	}
	wplan, err := planFor(cfg.workload, warm, cfg.seed)
	if err != nil {
		return nil, err
	}
	if _, _, err := simulateOnce(ctx, root, wplan, 1, false, func(dir string) (int, error) {
		return execute(ctx, cfg.workload, dir, cfg.workers)
	}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	plan, err := planFor(cfg.workload, sz, cfg.seed)
	if err != nil {
		return nil, err
	}
	return &fixture{plan: plan}, nil
}

func (fx *fixture) cleanup() {
	if fx != nil && fx.storeDir != "" {
		os.RemoveAll(fx.storeDir)
	}
}

// runEndToEnd is the untraced pass of one workload: set up (several times,
// median reported), then timed repetitions of the fixed plan until -seconds
// is used up, every repetition checked.
func runEndToEnd(ctx context.Context, cfg config, log io.Writer) (*workloadResult, error) {
	root, err := cfg.workRoot()
	if err != nil {
		return nil, err
	}
	oracle, err := loadExpected()
	if err != nil {
		return nil, err
	}

	var setups []float64
	var fx *fixture
	nSetups := setupReps
	if cfg.short {
		nSetups = 1
	}
	for i := 0; i < nSetups; i++ {
		fx.cleanup()
		t := time.Now()
		if fx, err = setUp(ctx, cfg, root); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer fx.cleanup()

	res := &workloadResult{Workload: cfg.workload, Seed: cfg.seed, Correct: true}
	var (
		rate, cpuPerK            []float64
		scanMs, reportMs, anaMs  []float64
		firstReport, firstAnalyz digest
		spent                    time.Duration
	)
	problem := func(format string, args ...any) {
		res.Correct = false
		if len(res.Problems) < 8 {
			res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
		}
	}
	timed := time.Now()
	for r := 0; cfg.more(r, time.Since(timed), spent); r++ {
		var rep repetition
		t := time.Now()
		if cfg.workload == wlStoreRead {
			rep, err = readOnce(fx.storeDir, fx.plan)
		} else {
			rep, _, err = simulateOnce(ctx, root, fx.plan, cfg.sizes().ReadPasses, false, func(dir string) (int, error) {
				return execute(ctx, cfg.workload, dir, cfg.workers)
			})
		}
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", r, err)
		}
		spent += time.Since(t)
		res.Repetitions++
		res.Attempted += rep.jobs

		// A repetition whose outputs are not the expected bytes fails every
		// job in it: whatever was measured, it was not this workload.
		bad := ""
		for _, rs := range rep.reads {
			if firstReport.sum == "" {
				firstReport, firstAnalyz = rs.reportOut, rs.analyzeOut
				if !cfg.updating {
					bad = checkExpected(oracle, cfg.short, cfg.workload, cfg.seed, rs.reportOut, rs.analyzeOut)
				}
			}
			if rs.reportOut.sum != firstReport.sum {
				bad = "report changed between repetitions: " + firstDiff(splitLines(firstReport.text), splitLines(rs.reportOut.text))
			} else if rs.analyzeOut.sum != firstAnalyz.sum {
				bad = "analyze document changed between repetitions"
			}
			scanMs, reportMs, anaMs = append(scanMs, ms(rs.scan)), append(reportMs, ms(rs.report)), append(anaMs, ms(rs.analyze))
		}
		switch {
		case bad != "":
			problem("repetition %d: %s", r, bad)
			res.Failed += rep.jobs
		case rep.missing+rep.errored > 0:
			problem("repetition %d: %d jobs without a record, %d errored", r, rep.missing, rep.errored)
			res.Failed += rep.missing + rep.errored
		}
		rate = append(rate, float64(rep.jobs)/rep.wall.Seconds())
		cpuPerK = append(cpuPerK, rep.cpu.Seconds()/float64(rep.jobs)*1000)
		fmt.Fprintf(log, "# %s repetition %d: wall %.3fs cpu %.3fs %.1f jobs/s, %d wasted\n",
			cfg.workload, r, rep.wall.Seconds(), rep.cpu.Seconds(), rate[r], rep.wasted)
	}
	res.FailedRatio = float64(res.Failed) / float64(res.Attempted)
	res.ReportSHA, res.AnalyzeSHA, res.Report = firstReport.sum, firstAnalyz.sum, splitLines(firstReport.text)

	set := newMetricSet(endToEnd)
	set.samples("setup_s", setups)
	set.samples("jobs_per_s", rate)
	set.samples("cpu_s_per_kjob", cpuPerK)
	set.value("peak_rss_mb", peakRSSMB())
	set.samples("resume_scan_ms", scanMs)
	set.samples("report_ms", reportMs)
	set.samples("analyze_ms", anaMs)
	if err := set.finish(); err != nil {
		return nil, err
	}
	res.Metrics = set.m
	set.print(log, cfg.workload)
	fmt.Fprintf(log, "%-11s %-36s %14s %-7s failed=%d attempted=%d repetitions=%d\n",
		cfg.workload, "failed_ratio", fmtValue(res.FailedRatio), "ratio", res.Failed, res.Attempted, res.Repetitions)
	fmt.Fprintf(log, "%-11s report sha256 %s  analyze sha256 %s\n", cfg.workload, short12(res.ReportSHA), short12(res.AnalyzeSHA))
	for _, p := range res.Problems {
		fmt.Fprintf(log, "%-11s PROBLEM %s\n", cfg.workload, p)
	}
	return res, nil
}

// more decides whether repetition number `done` should run: one under
// -short, else at least minReps and then as many as still fit in -seconds
// at the pace so far.
func (c config) more(done int, elapsed, spent time.Duration) bool {
	switch {
	case c.short:
		return done < 1
	case done < minReps:
		return true
	}
	return elapsed+spent/time.Duration(done) <= time.Duration(c.seconds*float64(time.Second))
}
