package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"mfc/internal/campaign"
	"mfc/internal/campaign/dist"
	"mfc/internal/obs"
)

// fleet-file's workers are separate processes, the shape `mfc-campaign
// work` is deployed in ("one per process or host"). The issue asked for W
// goroutines in one process; at this commit that cannot complete: every
// lease handle in one process writes the same temp path
// (<name>.lease.tmp.<pid>.1), so when two in-process workers meet on a free
// shard one of them gets ENOENT from link(2) and dist.Work returns the
// error — five runs out of six here. Distinct pids make the temp paths
// distinct, which leaves only the double-win that costs duplicated work and
// is counted in dist.wasted_job_ratio.
//
// The worker is this binary re-executed with workerEnv set; main and
// TestMain both divert to workerMain, so it works under `go test` too.
const workerEnv = "MFC_BENCH_FLEET_WORKER"

// workerSpec travels to the worker process in workerEnv.
type workerSpec struct {
	Dir    string `json:"dir"`
	Owner  string `json:"owner"`
	Traced bool   `json:"traced"` // record spans (spilled to dir/spans) and job events
}

// shardTiming is one claim as the worker's hooks saw it.
type shardTiming struct {
	Shard   int   `json:"shard"`
	Claimed int64 `json:"claimed_ns"` // unix nanoseconds
	Done    int64 `json:"done_ns"`
	Newly   int   `json:"newly"`
}

// workerReport is what a worker process prints when dist.Work returns.
type workerReport struct {
	Status     dist.WorkStatus `json:"status"`
	Started    int64           `json:"started_ns"`
	Returned   int64           `json:"returned_ns"`
	LastRecord int64           `json:"last_record_ns"` // last terminal event
	PeakRSSKB  int64           `json:"peak_rss_kb"`
	Shards     []shardTiming   `json:"shards,omitempty"`
	Jobs       []jobTiming     `json:"jobs,omitempty"` // traced only
	Err        string          `json:"err,omitempty"`
}

// workerMain runs when workerEnv is set: one dist.Work loop, then the
// report on standard output. It returns the process's exit code.
func workerMain(raw string) int {
	var spec workerSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		return fail(fmt.Errorf("%s: %w", workerEnv, err))
	}
	rep := workerReport{Started: time.Now().UnixNano()}
	opts := dist.WorkOptions{Owner: spec.Owner, Workers: 1, Poll: fleetPoll}
	var cut *jobCutter
	if spec.Traced {
		opts.Spans = obs.NewSpanRecorder(spec.Owner, spanRing)
		cut = newJobCutter()
	}
	open := map[int]int{} // shard -> index in rep.Shards
	opts.OnClaim = func(k int) {
		open[k] = len(rep.Shards)
		rep.Shards = append(rep.Shards, shardTiming{Shard: k, Claimed: time.Now().UnixNano()})
	}
	opts.OnShardDone = func(k, newly int) {
		s := &rep.Shards[open[k]]
		s.Done, s.Newly = time.Now().UnixNano(), newly
	}
	opts.OnEvent = func(ev campaign.SiteEvent) {
		now := time.Now()
		if ev.Terminal() {
			rep.LastRecord = now.UnixNano()
		}
		if cut != nil {
			cut.event(ev, now)
		}
	}
	st, err := dist.Work(context.Background(), spec.Dir, opts)
	rep.Returned, rep.PeakRSSKB = time.Now().UnixNano(), selfPeakKB()
	if st != nil {
		rep.Status = *st
	}
	if cut != nil {
		rep.Jobs = cut.done
	}
	if err != nil {
		rep.Err = err.Error()
	}
	if jerr := json.NewEncoder(os.Stdout).Encode(&rep); jerr != nil {
		return fail(jerr)
	}
	if err != nil {
		return 1
	}
	return 0
}

// execFleetFile starts `workers` worker processes on one shared directory,
// one measurement goroutine and one P each, and waits for all of them.
func execFleetFile(ctx context.Context, dir string, workers int, traced bool) (int, []workerReport, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	reps := make([]workerReport, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		spec, _ := json.Marshal(workerSpec{Dir: dir, Owner: workerOwner(i), Traced: traced})
		cmd := exec.CommandContext(ctx, self)
		cmd.Env = append(os.Environ(), workerEnv+"="+string(spec), "GOMAXPROCS=1")
		cmd.Stderr = os.Stderr
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := cmd.Output()
			if jerr := json.Unmarshal(out, &reps[i]); jerr != nil && err == nil {
				err = fmt.Errorf("unreadable report %q: %w", strings.TrimSpace(string(out)), jerr)
			}
			if reps[i].Err != "" {
				err = fmt.Errorf("%s", reps[i].Err)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	measured := 0
	for i := range reps {
		if errs[i] != nil {
			return measured, reps, fmt.Errorf("worker %d: %w", i, errs[i])
		}
		workerPeakKB = max(workerPeakKB, reps[i].PeakRSSKB)
		measured += reps[i].Status.NewlyDone
	}
	return measured, reps, nil
}
