package dist

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mfc/internal/campaign"
	"mfc/internal/campaign/dist/lease"
	"mfc/internal/campaign/serve"
	"mfc/internal/clock"
	"mfc/internal/clock/clocktest"
	"mfc/internal/core"
	"mfc/internal/population"
)

// distPlan saves a small matrix into dir: 2 cells x 6 sites = 12 jobs,
// ShardJobs 2 -> 6 shards, enough for three workers to spread over.
func distPlan(t *testing.T, dir string) *campaign.Plan {
	t.Helper()
	plan, err := campaign.NewPlan("dist-test",
		[]population.Band{population.Rank1M, population.Phishing},
		[]core.Stage{core.StageBase}, nil, 6, 99)
	if err != nil {
		t.Fatal(err)
	}
	plan.ShardJobs = 2
	if err := plan.Save(dir); err != nil {
		t.Fatal(err)
	}
	return plan
}

// singleProcessReport runs the same plan uninterrupted in one process
// (campaign.Run) and returns its report — the bytes every distributed
// configuration must reproduce exactly.
func singleProcessReport(t *testing.T, mkPlan func(*testing.T, string) *campaign.Plan) string {
	t.Helper()
	dir := t.TempDir()
	mkPlan(t, dir)
	st, err := campaign.Run(context.Background(), dir, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.AlreadyDone+st.NewlyDone != st.Total {
		t.Fatalf("baseline run incomplete: %+v", st)
	}
	return reportOf(t, dir)
}

func reportOf(t *testing.T, dirs ...string) string {
	t.Helper()
	plan, sum, err := campaign.Summarize(dirs...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := campaign.RenderReport(&buf, plan, sum); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// Three concurrent workers on one campaign directory must claim disjoint
// shards (no job measured twice), finish the plan, and produce a report
// byte-identical to the single-process run.
func TestThreeWorkersDisjointByteIdentical(t *testing.T) {
	want := singleProcessReport(t, distPlan)

	dir := t.TempDir()
	plan := distPlan(t, dir)
	type claim struct{ worker, shard, newly int }
	var (
		mu     sync.Mutex
		claims []claim
	)
	statuses := make([]*WorkStatus, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := Work(context.Background(), dir, WorkOptions{
				Owner:   fmt.Sprintf("worker-%d", i),
				Workers: 2,
				Poll:    20 * time.Millisecond,
				OnShardDone: func(shard, newly int) {
					mu.Lock()
					claims = append(claims, claim{i, shard, newly})
					mu.Unlock()
				},
			})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			statuses[i] = st
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	totalNew, totalTakeovers := 0, 0
	for i, st := range statuses {
		totalNew += st.NewlyDone
		totalTakeovers += st.Takeovers
		if st.Fenced != 0 {
			t.Errorf("worker %d was fenced %d times with all peers live", i, st.Fenced)
		}
	}
	// Disjoint claims: every job measured exactly once across the fleet.
	if totalNew != plan.Jobs() {
		t.Errorf("workers measured %d jobs total, want exactly %d (disjoint claims)", totalNew, plan.Jobs())
	}
	if totalTakeovers != 0 {
		t.Errorf("%d takeovers with all workers live", totalTakeovers)
	}
	// Each shard's jobs came from exactly one worker.
	perShard := map[int][]int{}
	for _, c := range claims {
		if c.newly > 0 {
			perShard[c.shard] = append(perShard[c.shard], c.worker)
		}
	}
	for shard, workers := range perShard {
		if len(workers) != 1 {
			t.Errorf("shard %d was worked by %v, want one worker", shard, workers)
		}
	}

	if got := reportOf(t, dir); got != want {
		t.Errorf("3-worker report differs from single-process run:\n--- want\n%s\n--- got\n%s", want, got)
	}
	// All leases are released; a legacy resume on the same dir is free to
	// run (and finds nothing to do).
	if live, _ := lease.Live(campaign.LeasesDir(dir), time.Now()); len(live) != 0 {
		t.Errorf("leases left behind: %+v", live)
	}
	st, err := campaign.Run(context.Background(), dir, campaign.Options{})
	if err != nil {
		t.Fatalf("legacy resume after workers: %v", err)
	}
	if st.NewlyDone != 0 {
		t.Errorf("legacy resume reran %d jobs after workers completed everything", st.NewlyDone)
	}
}

// killPlan is a longer single-band matrix (120 jobs over 12 shards) so a
// worker killed early is reliably mid-campaign.
func killPlan(t *testing.T, dir string) *campaign.Plan {
	t.Helper()
	plan, err := campaign.NewPlan("dist-kill",
		[]population.Band{population.Rank1M},
		[]core.Stage{core.StageBase}, nil, 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	plan.ShardJobs = 10
	if err := plan.Save(dir); err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestHelperWorkProcess is not a test: it is the subprocess body for
// TestKillNineTakeover, entered by re-executing the test binary.
func TestHelperWorkProcess(t *testing.T) {
	if os.Getenv("MFC_DIST_HELPER") != "1" {
		t.Skip("helper process entry point; spawned by TestKillNineTakeover")
	}
	_, err := Work(context.Background(), os.Getenv("MFC_DIST_DIR"), WorkOptions{
		Owner:   "victim",
		Workers: 2,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
}

// The acceptance scenario: a worker process is SIGKILLed mid-shard; its
// lease goes stale (dead pid -> immediately), a second worker takes it
// over, seals the possibly-torn shard tail, finishes the campaign, and
// the report is byte-identical to an uninterrupted single-process run.
func TestKillNineTakeover(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill test")
	}
	want := singleProcessReport(t, killPlan)

	dir := t.TempDir()
	plan := killPlan(t, dir)

	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperWorkProcess$")
	cmd.Env = append(os.Environ(), "MFC_DIST_HELPER=1", "MFC_DIST_DIR="+dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Kill -9 as soon as the victim has stored at least one record: it is
	// then provably mid-campaign, holding a shard lease.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("victim worker produced no records within 30s")
		}
		if shardBytes(t, dir) > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
		t.Fatal(err)
	}
	cmd.Wait()

	// The victim's leases are still on disk but stale (its pid is dead).
	staleLeases := 0
	if ents, err := os.ReadDir(campaign.LeasesDir(dir)); err == nil {
		for _, e := range ents {
			if filepath.Ext(e.Name()) == ".lease" {
				staleLeases++
			}
		}
	}

	st, err := Work(context.Background(), dir, WorkOptions{Owner: "rescuer", Workers: 2})
	if err != nil {
		t.Fatalf("rescuer: %v", err)
	}
	if st.NewlyDone == 0 {
		t.Fatal("rescuer found nothing to do; victim was not killed mid-campaign")
	}
	if staleLeases > 0 && st.Takeovers == 0 {
		t.Errorf("victim left %d stale lease(s) but rescuer recorded no takeover", staleLeases)
	}

	got := reportOf(t, dir)
	if got != want {
		t.Errorf("report after kill -9 + takeover differs from uninterrupted run:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if !strings.Contains(got, fmt.Sprintf("%d jobs, %d done", plan.Jobs(), plan.Jobs())) {
		t.Errorf("campaign not complete after takeover:\n%s", got)
	}
}

// shardBytes sums the size of all shard files in dir.
func shardBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	ents, err := os.ReadDir(filepath.Join(dir, "shards"))
	if err != nil {
		return 0
	}
	for _, e := range ents {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// Cross-store merge determinism: two stores of the same plan — one
// partial, one complete, overlapping — must merge (both virtually via
// campaign.Summarize and physically via Merge) to the single-process
// run's bytes.
func TestMergeAcrossStoresByteIdentical(t *testing.T) {
	want := singleProcessReport(t, distPlan)

	// Store A: halted early (a worker that died or was drained).
	dirA := t.TempDir()
	distPlan(t, dirA)
	stA, err := Work(context.Background(), dirA, WorkOptions{Owner: "host-a", Workers: 2, HaltAfter: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !stA.Halted || stA.NewlyDone >= stA.Total {
		t.Fatalf("store A should be partial: %+v", stA)
	}

	// Store B: a full run on another "host" (its own directory).
	dirB := t.TempDir()
	plan := distPlan(t, dirB)
	stB, err := Work(context.Background(), dirB, WorkOptions{Owner: "host-b", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stB.NewlyDone != plan.Jobs() {
		t.Fatalf("store B should be complete: %+v", stB)
	}

	// The single-dir Report is the same fold as the variadic Summarize.
	var buf bytes.Buffer
	if err := campaign.Report(dirB, &buf); err != nil {
		t.Fatal(err)
	}
	if got := reportOf(t, dirB); got != buf.String() {
		t.Errorf("Summarize(dir) report differs from Report(dir):\n--- Report\n%s\n--- Summarize\n%s", buf.String(), got)
	}

	// Merged report over overlapping stores == uninterrupted bytes, in
	// either order.
	if got := reportOf(t, dirA, dirB); got != want {
		t.Errorf("merged report differs:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if got := reportOf(t, dirB, dirA); got != want {
		t.Errorf("merged report is order-sensitive:\n--- want\n%s\n--- got\n%s", want, got)
	}

	// Physical merge: the consolidated dir reports identically through
	// the plain single-store path, and holds one record per job.
	out := filepath.Join(t.TempDir(), "merged")
	r, err := campaign.OpenReader(dirA, dirB)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := MergeReader(r, out); err != nil || done != plan.Jobs() {
		t.Fatalf("merged %d records (%v), want %d", done, err, plan.Jobs())
	}
	buf.Reset()
	if err := campaign.Report(out, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("physically merged store reports differently:\n--- want\n%s\n--- got\n%s", want, buf.String())
	}

	// Merging into a dir that already holds records is refused.
	if err := Merge([]string{dirA, dirB}, out); err == nil {
		t.Error("re-merge into a populated store was allowed")
	}

	// Stores of different plans never merge.
	dirC := t.TempDir()
	planC, err := campaign.NewPlan("dist-test-other",
		[]population.Band{population.Rank1M, population.Phishing},
		[]core.Stage{core.StageBase}, nil, 6, 100)
	if err != nil {
		t.Fatal(err)
	}
	planC.ShardJobs = 2
	if err := planC.Save(dirC); err != nil {
		t.Fatal(err)
	}
	if _, _, err := campaign.Summarize(dirA, dirC); err == nil {
		t.Error("merging stores of different plans was allowed")
	}
}

// A worker must fail fast while a legacy single-process run holds the
// exclusive store lease.
func TestWorkFailsFastWhenStoreLocked(t *testing.T) {
	dir := t.TempDir()
	plan := distPlan(t, dir)
	store, err := campaign.OpenStoreLocked(clock.Real, dir, plan.ShardJobs, "legacy-run", time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := Work(context.Background(), dir, WorkOptions{Owner: "worker"}); err == nil {
		t.Fatal("worker started under a live store lock")
	} else if !strings.Contains(err.Error(), "locked by single-process run") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// The converse: a control plane must refuse a directory a filesystem worker
// is live on — its in-memory grants and the worker's shard lease would
// otherwise never see each other.
func TestServeRefusesLiveWorkerLease(t *testing.T) {
	dir := t.TempDir()
	distPlan(t, dir)
	lk, err := lease.Acquire(campaign.LeasesDir(dir), campaign.ShardLeaseName(0), "worker", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if srv, err := serve.New(dir, serve.Options{}); err == nil {
		srv.Close()
		t.Fatal("control plane opened a dir with a live worker lease")
	} else if !strings.Contains(err.Error(), "live worker lease") {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := lk.Release(); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(dir, serve.Options{})
	if err != nil {
		t.Fatalf("control plane refused the dir after the worker released: %v", err)
	}
	srv.Close()
}

// A worker started with a short -ttl must still respect a live store
// lock: the lock's staleness is judged by the TTL its owner declared,
// not the worker's.
func TestShortTTLWorkerRespectsStoreLock(t *testing.T) {
	dir := t.TempDir()
	plan := distPlan(t, dir)
	clk := clocktest.New(time.Now())
	store, err := campaign.OpenStoreLocked(clk, dir, plan.ShardJobs, "legacy-run", time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	clk.Advance(5 * time.Millisecond) // age the heartbeat past the worker's ttl
	if _, err := Work(context.Background(), dir, WorkOptions{Owner: "impatient", TTL: time.Millisecond, Clock: clk}); err == nil {
		t.Fatal("short-ttl worker bypassed a live store lock")
	}
}

// A stale-lease takeover in-process: worker A acquires a shard and goes
// silent for an hour of the fake clock; worker B must take the shard over,
// finish it, and A's handle must be fenced.
func TestStaleShardLeaseTakeover(t *testing.T) {
	dir := t.TempDir()
	plan := distPlan(t, dir)
	clk := clocktest.New(time.Now())
	hA, err := lease.AcquireOn(clk, campaign.LeasesDir(dir), campaign.ShardLeaseName(0), "wedged-worker", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Hour)

	st, err := Work(context.Background(), dir, WorkOptions{Owner: "healthy-worker", Workers: 2, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if st.Takeovers == 0 {
		t.Error("stale shard lease was not taken over")
	}
	if st.NewlyDone != plan.Jobs() {
		t.Errorf("campaign incomplete after takeover: %+v", st)
	}
	if err := hA.Verify(); err == nil {
		t.Error("wedged worker's handle still verifies after takeover")
	}
}
