package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mfc/internal/campaign/dist/lease"
	"mfc/internal/clock"
	"mfc/internal/clock/clocktest"
	"mfc/internal/core"
	"mfc/internal/population"
)

// testPlan is a small two-cell matrix that still crosses a shard boundary
// (ShardJobs 5 over 12 jobs -> 3 shard files).
func testPlan(t *testing.T, dir string) *Plan {
	t.Helper()
	plan, err := NewPlan("test-campaign",
		[]population.Band{population.Rank1M, population.Phishing},
		[]core.Stage{core.StageBase}, nil, 6, 99)
	if err != nil {
		t.Fatal(err)
	}
	plan.ShardJobs = 5
	if err := plan.Save(dir); err != nil {
		t.Fatal(err)
	}
	return plan
}

func runToCompletion(t *testing.T, dir string, opts Options) *Status {
	t.Helper()
	st, err := Run(context.Background(), dir, opts)
	if err != nil {
		t.Fatalf("run in %s: %v", dir, err)
	}
	return st
}

func reportOf(t *testing.T, dir string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Report(dir, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// The acceptance contract: a campaign killed mid-run and resumed produces a
// byte-identical aggregate report to the same campaign run uninterrupted,
// and worker count changes nothing either.
func TestResumeReportByteIdentical(t *testing.T) {
	clean := t.TempDir()
	testPlan(t, clean)
	st := runToCompletion(t, clean, Options{Workers: 1})
	if st.NewlyDone != st.Total || st.Errored != 0 {
		t.Fatalf("clean run: %+v", st)
	}
	want := reportOf(t, clean)
	if !strings.Contains(want, "12 jobs, 12 done") {
		t.Fatalf("unexpected report header:\n%s", want)
	}

	// Same plan, killed after 4 completions, then resumed — with a
	// different worker count for good measure.
	resumed := t.TempDir()
	testPlan(t, resumed)
	st1, err := Run(context.Background(), resumed, Options{Workers: 2, HaltAfter: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !st1.Halted || st1.NewlyDone < 4 || st1.NewlyDone >= st1.Total {
		t.Fatalf("halted run: %+v", st1)
	}
	if got := reportOf(t, resumed); !strings.Contains(got, "INCOMPLETE") {
		t.Fatalf("partial report not marked incomplete:\n%s", got)
	}
	st2 := runToCompletion(t, resumed, Options{Workers: 4})
	if st2.AlreadyDone != st1.NewlyDone || st2.AlreadyDone+st2.NewlyDone != st2.Total {
		t.Fatalf("resume did not skip completed jobs: %+v then %+v", st1, st2)
	}
	if got := reportOf(t, resumed); got != want {
		t.Errorf("resumed report differs from uninterrupted run:\n--- want\n%s\n--- got\n%s", want, got)
	}

	// Resuming a finished campaign is a no-op.
	st3 := runToCompletion(t, resumed, Options{})
	if st3.NewlyDone != 0 || st3.AlreadyDone != st3.Total {
		t.Fatalf("no-op resume: %+v", st3)
	}
}

// A torn trailing line (kill mid-append) must be ignored, the job rerun on
// resume, and the final report unaffected.
func TestTornWriteIsRepairedOnResume(t *testing.T) {
	dir := t.TempDir()
	plan := testPlan(t, dir)
	runToCompletion(t, dir, Options{})
	want := reportOf(t, dir)

	// Tear the last record of shard 0: drop its trailing bytes.
	path := filepath.Join(dir, "shards", "shard-0000.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}

	store, err := OpenStore(dir, plan.ShardJobs)
	if err != nil {
		t.Fatal(err)
	}
	done, err := store.Completed(plan.Jobs())
	store.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != plan.Jobs()-1 {
		t.Fatalf("torn line not dropped: %d of %d jobs marked done", len(done), plan.Jobs())
	}

	st := runToCompletion(t, dir, Options{})
	if st.NewlyDone != 1 {
		t.Fatalf("resume after tear reran %d jobs, want 1", st.NewlyDone)
	}
	if got := reportOf(t, dir); got != want {
		t.Errorf("report after torn-write repair differs:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// Concurrent writeFileAtomic calls on one path race: each write must land
// whole (a reader never sees a torn file) and none may fail — with one
// shared temp path the loser's rename found its file already renamed away.
func TestManifestConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "racing.json")
	want := bytes.Repeat([]byte("0123456789abcdef"), 256)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := writeFileAtomic(path, want); err != nil {
					t.Errorf("writeFileAtomic: %v", err)
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(stop) }()
	for reads := 0; ; reads++ {
		if got, err := os.ReadFile(path); err == nil && !bytes.Equal(got, want) {
			t.Fatalf("read %d saw a torn file of %d bytes", reads, len(got))
		} else if err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("read %d: %v", reads, err)
		}
		select {
		case <-stop:
			if files, _ := os.ReadDir(filepath.Dir(path)); len(files) != 1 {
				t.Errorf("%d files left in the directory, want only %s", len(files), filepath.Base(path))
			}
			return
		default:
		}
	}
}

// A worker holds a shard's appender open only while it holds the shard: over
// a 300-shard thin plan it never has more shard files open than its pool is
// wide, and none once the last shard is sealed — not one per shard it ever
// wrote (EMFILE at a thousand shards).
func TestWorkerClosesSealedShardFiles(t *testing.T) {
	dir := t.TempDir()
	plan, err := NewPlan("thin", []population.Band{population.Rank10K},
		[]core.Stage{core.StageBase}, nil, 600, 5)
	if err != nil {
		t.Fatal(err)
	}
	plan.MaxCrowd, plan.MinClients, plan.Clients, plan.ShardJobs = 5, 5, 8, 2
	if err := plan.Save(dir); err != nil {
		t.Fatal(err)
	}
	src, err := OpenLeaseSource(clock.Real, dir, "w", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	const width = 2
	var peak atomic.Int64
	open := func() int64 {
		src.store.mu.Lock()
		defer src.store.mu.Unlock()
		return int64(len(src.store.files))
	}
	probe := probedSource{LeaseSource: src, afterPersist: func() {
		if n := open(); n > peak.Load() {
			peak.Store(n)
		}
	}}
	st, err := Work(context.Background(), plan, probe, nil, WorkOptions{
		Owner: "w", Workers: width,
		OnShardDone: func(shard, _ int) {
			if n := open(); n != 0 {
				t.Errorf("%d shard files open after shard %d was sealed", n, shard)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardsFinished != plan.Shards() {
		t.Fatalf("sealed %d shards, want %d", st.ShardsFinished, plan.Shards())
	}
	// A persisted batch leaves its shard's appender open until the seal.
	if p := peak.Load(); p < 1 || p > width {
		t.Errorf("peak open shard files = %d, want 1..%d (the pool width)", p, width)
	}
}

// probedSource is a LeaseSource whose holds call afterPersist once each
// Persist has returned.
type probedSource struct {
	*LeaseSource
	afterPersist func()
}

func (s probedSource) Claim(ctx context.Context) (*Claim, error) {
	c, err := s.LeaseSource.Claim(ctx)
	if err == nil {
		c.Hold = probedHold{Hold: c.Hold, after: s.afterPersist}
	}
	return c, err
}

type probedHold struct {
	Hold
	after func()
}

func (h probedHold) Persist(ctx context.Context, recs ...*Record) error {
	defer h.after()
	return h.Hold.Persist(ctx, recs...)
}

// A claim lost mid-shard closes its appender when it returns: a second
// owner takes the lease over after the first batch is stored, the next
// heartbeat fences the worker, and nothing of the shard stays open — while
// the successor's lease is left in place.
func TestFencedClaimClosesItsAppender(t *testing.T) {
	dir := t.TempDir()
	plan, err := NewPlan("fenced", []population.Band{population.Rank10K},
		[]core.Stage{core.StageBase}, nil, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	plan.MaxCrowd, plan.MinClients, plan.Clients, plan.ShardJobs = 5, 5, 8, 4
	if err := plan.Save(dir); err != nil {
		t.Fatal(err)
	}
	const ttl = time.Minute
	clk := clocktest.New(time.Unix(1e9, 0))
	src, err := OpenLeaseSource(clk, dir, "first", ttl)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	one := &fakeSource{claims: []func() (*Claim, error){
		func() (*Claim, error) {
			c, err := src.Claim(context.Background())
			if err == nil {
				c.Hold = &takeoverHold{Hold: c.Hold, t: t, clk: clk, dir: dir, ttl: ttl}
			}
			return c, err
		},
		func() (*Claim, error) { return nil, ErrComplete },
	}}
	st, err := Work(context.Background(), plan, one, nil, WorkOptions{Owner: "first", Workers: 1, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if st.Fenced != 1 || st.ShardsFinished != 0 {
		t.Fatalf("status = %+v, want the one claim fenced", *st)
	}
	src.store.mu.Lock()
	open := len(src.store.files)
	src.store.mu.Unlock()
	if open != 0 {
		t.Errorf("%d shard appenders open after the fenced claim returned", open)
	}
	if info, err := lease.Read(LeasesDir(dir), ShardLeaseName(0)); err != nil || info.Owner != "successor" {
		t.Errorf("shard lease after the fenced release: %+v, %v; want the successor's", info, err)
	}
}

// takeoverHold stores a batch, then — once — lets a second owner take the
// shard's lease over on a clock past the TTL and moves the worker's clock
// to its next heartbeat, which finds the claim lost. Each Persist then
// waits for the fence to cancel the shard.
type takeoverHold struct {
	Hold
	t    *testing.T
	clk  *clocktest.Clock
	dir  string
	ttl  time.Duration
	once sync.Once
}

func (h *takeoverHold) Persist(ctx context.Context, recs ...*Record) error {
	if err := h.Hold.Persist(ctx, recs...); err != nil {
		return err
	}
	h.once.Do(func() {
		later := clocktest.New(h.clk.Now().Add(2 * h.ttl))
		lk, err := lease.AcquireOn(later, LeasesDir(h.dir), ShardLeaseName(0), "successor", h.ttl)
		if err != nil || !lk.TookOver() {
			h.t.Errorf("second owner's takeover: %v", err)
		}
		h.clk.Advance(h.ttl / 3)
	})
	<-ctx.Done()
	return nil
}

// Saving a plan is idempotent, but replacing a campaign's plan is refused:
// the plan is the store's identity.
func TestPlanSaveRefusesReplacement(t *testing.T) {
	dir := t.TempDir()
	plan := testPlan(t, dir)
	if err := plan.Save(dir); err != nil {
		t.Fatalf("idempotent re-save failed: %v", err)
	}
	other := *plan
	other.Seed++
	if err := other.Save(dir); err == nil {
		t.Fatal("replacing an existing plan was allowed")
	}
}

// skipClock is a fake clock on which a timer's wait passes as it is armed:
// an idle backoff costs fake time and no real time, with nobody driving.
type skipClock struct{ *clocktest.Clock }

func (c skipClock) NewTimer(d time.Duration) *clock.Timer {
	t := c.Clock.NewTimer(d)
	c.Advance(d)
	return t
}

// Two concurrent runs on one campaign directory cooperate like any two
// workers: they lease disjoint shards, so every job is measured exactly
// once between them, and the report is the single run's bytes. The run
// left without a free shard polls through its backoff on a fake clock
// (1 ms base, so the TTL outlasts any number of polls).
func TestConcurrentRunsShareShards(t *testing.T) {
	clean := t.TempDir()
	testPlan(t, clean)
	runToCompletion(t, clean, Options{})
	want := reportOf(t, clean)

	dir := t.TempDir()
	plan := testPlan(t, dir)
	clk := skipClock{clocktest.New(time.Now())}
	var (
		mu      sync.Mutex
		shardBy = map[int]int{} // shard -> the run that measured its jobs
		wg      sync.WaitGroup
		sts     [2]*Status
	)
	for r := range sts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := Run(context.Background(), dir, Options{Workers: 2, Clock: clk, Poll: time.Millisecond, TTL: time.Hour, OnEvent: func(ev SiteEvent) {
				if !ev.Terminal() {
					return
				}
				mu.Lock()
				defer mu.Unlock()
				if by, ok := shardBy[plan.ShardOf(ev.Job)]; ok && by != r {
					t.Errorf("shard %d measured by both runs", plan.ShardOf(ev.Job))
				}
				shardBy[plan.ShardOf(ev.Job)] = r
			}})
			if err != nil {
				t.Errorf("run %d: %v", r, err)
			}
			sts[r] = st
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if n := sts[0].NewlyDone + sts[1].NewlyDone; n != plan.Jobs() {
		t.Errorf("the two runs measured %d jobs between them, want exactly %d", n, plan.Jobs())
	}
	if got := reportOf(t, dir); got != want {
		t.Errorf("report of two concurrent runs differs from a single run:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if live, _ := lease.Live(LeasesDir(dir), clk.Now()); len(live) != 0 {
		t.Errorf("leases left behind: %+v", live)
	}
}

// A run leaves a shard whose lease a live peer holds alone, and finishes
// it once that lease has gone stale (the peer was killed): the takeover
// that used to need `work` is what resume does.
func TestRunSkipsLiveLeasedShardThenTakesItOver(t *testing.T) {
	clean := t.TempDir()
	testPlan(t, clean)
	runToCompletion(t, clean, Options{})
	want := reportOf(t, clean)

	dir := t.TempDir()
	plan := testPlan(t, dir)
	if _, err := lease.Acquire(LeasesDir(dir), ShardLeaseName(1), "worker-elsewhere", time.Minute); err != nil {
		t.Fatal(err)
	}
	// The run can finish shards 0 and 2 (7 jobs), then only wait for the
	// peer; cancel it there instead of sitting out the idle backoff.
	free := plan.Jobs() - plan.ShardJobs
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var finished atomic.Int64
	st, err := Run(ctx, dir, Options{OnEvent: func(ev SiteEvent) {
		if plan.ShardOf(ev.Job) == 1 {
			t.Errorf("job %d of the live-leased shard was measured", ev.Job)
		}
		if ev.Terminal() && int(finished.Add(1)) == free {
			cancel()
		}
	}})
	if !errors.Is(err, context.Canceled) || st.NewlyDone != free {
		t.Fatalf("run beside a live shard lease: %+v, %v; want %d jobs then cancellation", st, err, free)
	}

	// The peer dies: age its heartbeat past the TTL with no pid to probe.
	info, err := lease.Read(LeasesDir(dir), ShardLeaseName(1))
	if err != nil {
		t.Fatal(err)
	}
	info.HeartbeatUnixNano = time.Now().Add(-time.Hour).UnixNano()
	info.PID = 0
	writeLease(t, dir, ShardLeaseName(1), info)

	st = runToCompletion(t, dir, Options{})
	if st.AlreadyDone != free || st.AlreadyDone+st.NewlyDone != st.Total {
		t.Fatalf("run after the lease went stale: %+v", st)
	}
	if got := reportOf(t, dir); got != want {
		t.Errorf("report after takeover differs from a single run:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

func writeLease(t *testing.T, dir, name string, info *lease.Info) {
	t.Helper()
	data, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(lease.Path(LeasesDir(dir), name, info.Gen), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// Job addressing must partition the matrix exactly.
func TestPlanJobAddressing(t *testing.T) {
	plan := DefaultPlan()
	plan.Name, plan.Seed, plan.Sites = "addr", 1, 7
	plan.ShardJobs = 4
	plan.Cells = []Cell{
		{Band: population.Rank1K.String(), Stage: core.StageBase.String()},
		{Band: population.Startup.String(), Stage: core.StageSmallQuery.String()},
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if plan.Jobs() != 14 || plan.Shards() != 4 {
		t.Fatalf("jobs=%d shards=%d", plan.Jobs(), plan.Shards())
	}
	var perCell [2]int
	for j := 0; j < plan.Jobs(); j++ {
		perCell[plan.CellOf(j)]++
		if s := plan.SiteOf(j); s < 0 || s >= plan.Sites {
			t.Fatalf("job %d maps to site %d", j, s)
		}
	}
	if perCell[0] != 7 || perCell[1] != 7 {
		t.Fatalf("cells unevenly addressed: %v", perCell)
	}
}

// ServeUntil must shut the listener down when the context is canceled —
// no leaked server goroutine, no accepting socket left behind.
func TestServeUntilShutsDownOnCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- ServeUntil(ctx, ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
		}))
	}()

	resp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatalf("request while serving: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d while serving", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeUntil after cancel: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeUntil did not return after context cancel")
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}
