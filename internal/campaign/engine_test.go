package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mfc/internal/clock/clocktest"
	"mfc/internal/core"
	"mfc/internal/obs"
	"mfc/internal/population"
)

var _ ShardSource = (*fakeSource)(nil)

// fakeSource is a deterministic in-memory ShardSource: Claim replays a
// script, and the one shard it hands out is held by the fakeSource itself,
// whose Heartbeat/Persist/Seal behaviors each test overrides. Calls are
// counted — Persist by the records it was handed, each passed to the
// persist hook in turn — so tests can assert what the engine did to the
// claim.
type fakeSource struct {
	claims []func() (*Claim, error) // one entry per Claim call, in order

	heartbeat func(ctx context.Context) error
	persist   func(ctx context.Context, rec *Record) error
	seal      func(ctx context.Context) error

	mu                               sync.Mutex
	beats, persisted, seals, release int
	batches                          []int         // records per Persist call, in call order
	beat                             chan struct{} // receives once per Heartbeat call
}

// fakeTTL makes the engine's TTL/3 heartbeat a millisecond ticker.
const fakeTTL = 3 * time.Millisecond

func newFakeSource(jobs ...int) *fakeSource {
	f := &fakeSource{beat: make(chan struct{}, 1<<10)} // never blocks a beat within a test
	f.claims = []func() (*Claim, error){
		func() (*Claim, error) { return &Claim{Shard: 0, TTL: fakeTTL, Jobs: jobs, Hold: f}, nil },
		func() (*Claim, error) { return nil, ErrComplete },
	}
	return f
}

func (f *fakeSource) Survey(context.Context) (StartInfo, error) { return StartInfo{}, nil }

func (f *fakeSource) Claim(context.Context) (*Claim, error) {
	f.mu.Lock()
	next := f.claims[0]
	f.claims = f.claims[1:]
	f.mu.Unlock()
	return next()
}

func (f *fakeSource) count(n *int) {
	f.mu.Lock()
	*n++
	f.mu.Unlock()
}

func (f *fakeSource) Heartbeat(ctx context.Context) error {
	f.count(&f.beats)
	defer func() { f.beat <- struct{}{} }()
	if f.heartbeat != nil {
		return f.heartbeat(ctx)
	}
	return nil
}

func (f *fakeSource) Persist(ctx context.Context, recs ...*Record) error {
	f.mu.Lock()
	f.batches = append(f.batches, len(recs))
	f.mu.Unlock()
	for _, rec := range recs {
		f.count(&f.persisted)
		if f.persist == nil {
			continue
		}
		if err := f.persist(ctx, rec); err != nil {
			return err
		}
	}
	return nil
}

func (f *fakeSource) Seal(ctx context.Context) error {
	f.count(&f.seals)
	if f.seal != nil {
		return f.seal(ctx)
	}
	return nil
}

func (f *fakeSource) Release() error {
	f.count(&f.release)
	return nil
}

// enginePlan is a three-job in-memory plan: the engine never touches a
// directory, only the source does.
func enginePlan(t *testing.T) *Plan {
	t.Helper()
	plan, err := NewPlan("engine-test", []population.Band{population.Rank1M},
		[]core.Stage{core.StageBase}, nil, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// shardSpan returns the one shard span a single-claim run recorded.
func shardSpan(t *testing.T, rec *obs.SpanRecorder) obs.Span {
	t.Helper()
	for _, sp := range rec.Drain(nil) {
		if sp.Cat == "shard" {
			return sp
		}
	}
	t.Fatal("no shard span recorded")
	return obs.Span{}
}

// A worker whose span ring wraps before the first flush says so: the root
// work span carries the count of spans overwritten before it ended. With
// no spiller nothing drains the 4-slot ring, so the claim event, three job
// spans and the shard span overflow it, and the root span's own append
// overwrites one more after the count was taken.
func TestEngineWorkSpanCountsDroppedSpans(t *testing.T) {
	rec := obs.NewSpanRecorder("wrapped", 4)
	if _, err := Work(context.Background(), enginePlan(t), newFakeSource(0, 1, 2), nil, WorkOptions{Workers: 1, Spans: rec}); err != nil {
		t.Fatal(err)
	}
	total := rec.Dropped()
	for _, sp := range rec.Drain(nil) {
		if sp.Cat != "work" {
			continue
		}
		if got, want := sp.Attr("spans_dropped"), fmt.Sprint(total-1); total < 2 || got != want {
			t.Errorf("work span spans_dropped = %q, want %s (the ring dropped %d in all)", got, want, total)
		}
		return
	}
	t.Fatal("no work span recorded")
}

func TestEngineSealsACleanShard(t *testing.T) {
	f := newFakeSource(0, 1, 2)
	var terminal []int
	st, err := Work(context.Background(), enginePlan(t), f, nil, WorkOptions{Workers: 1,
		OnEvent: func(ev SiteEvent) {
			if ev.Terminal() {
				terminal = append(terminal, ev.Job)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	want := WorkStatus{Total: 3, NewlyDone: 3, ShardsClaimed: 1, ShardsFinished: 1}
	if *st != want {
		t.Errorf("status = %+v, want %+v", *st, want)
	}
	if f.persisted != 3 || f.seals != 1 || f.release != 0 {
		t.Errorf("persisted/sealed/released = %d/%d/%d, want 3/1/0", f.persisted, f.seals, f.release)
	}
	// Exactly one terminal event per job.
	if len(terminal) != 3 || terminal[0] != 0 || terminal[2] != 2 {
		t.Errorf("terminal events for jobs %v, want [0 1 2]", terminal)
	}
}

// Losing the claim mid-shard cancels the shard's remaining jobs and
// abandons it — no seal, and one release, which closes only what the lost
// claim still holds: the successor owns the shard.
func TestEngineFencedMidShard(t *testing.T) {
	f := newFakeSource(0, 1, 2)
	// The heartbeat's context is the shard's, so it ends when the fence
	// cancels the shard.
	beatCtx := make(chan context.Context, 1)
	f.heartbeat = func(ctx context.Context) error {
		beatCtx <- ctx
		return ErrFenced
	}
	// The first job's measurement outlasts the fence: its terminal event
	// returns only once the shard context is canceled, which here only the
	// fence can cause.
	rec := obs.NewSpanRecorder("fenced", 0)
	st, err := Work(context.Background(), enginePlan(t), f, nil, WorkOptions{Workers: 1, Spans: rec,
		OnEvent: func(ev SiteEvent) {
			if ev.Job == 0 && ev.Terminal() {
				<-(<-beatCtx).Done()
			}
		}})
	if err != nil {
		t.Fatalf("a fenced shard must not end the worker: %v", err)
	}
	if st.Fenced != 1 || st.ShardsFinished != 0 || st.NewlyDone != 1 {
		t.Errorf("status = %+v, want 1 fenced, 0 finished, 1 job", *st)
	}
	if f.seals != 0 || f.release != 1 {
		t.Errorf("fenced shard was sealed %d / released %d times, want 0 / 1", f.seals, f.release)
	}
	if sp := shardSpan(t, rec); sp.Attr("fenced") != "true" || sp.Attr("sealed") != "false" {
		t.Errorf("shard span attrs fenced=%s sealed=%s", sp.Attr("fenced"), sp.Attr("sealed"))
	}
}

// Losing the claim on the finish line is one decision: the status counter
// and the shard span's fenced attr must agree.
func TestEngineFencedAtSeal(t *testing.T) {
	f := newFakeSource(0, 1, 2)
	f.seal = func(context.Context) error { return ErrFenced }
	rec := obs.NewSpanRecorder("fenced-at-seal", 0)
	st, err := Work(context.Background(), enginePlan(t), f, nil, WorkOptions{Workers: 1, Spans: rec})
	if err != nil {
		t.Fatal(err)
	}
	if st.Fenced != 1 || st.ShardsFinished != 0 || st.NewlyDone != 3 {
		t.Errorf("status = %+v, want 1 fenced, 0 finished, 3 jobs", *st)
	}
	if f.release != 0 {
		t.Error("a shard fenced at seal was released")
	}
	if sp := shardSpan(t, rec); sp.Attr("fenced") != "true" || sp.Attr("sealed") != "false" {
		t.Errorf("shard span attrs fenced=%s sealed=%s, want true/false", sp.Attr("fenced"), sp.Attr("sealed"))
	}
}

// A heartbeat that fails without saying "fenced" skips a beat; the shard
// carries on and seals.
func TestEngineTransientHeartbeatFailureSkipsABeat(t *testing.T) {
	f := newFakeSource(0, 1, 2)
	f.heartbeat = func(context.Context) error { return errors.New("EIO") }
	// Hold the first job open across two failed beats.
	f.persist = func(context.Context, *Record) error {
		if f.persisted == 1 {
			<-f.beat
			<-f.beat
		}
		return nil
	}
	st, err := Work(context.Background(), enginePlan(t), f, nil, WorkOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Fenced != 0 || st.ShardsFinished != 1 || st.NewlyDone != 3 {
		t.Errorf("status = %+v, want 0 fenced, 1 finished, 3 jobs", *st)
	}
	if f.beats < 2 {
		t.Errorf("only %d heartbeats were attempted", f.beats)
	}
}

// A record that cannot be persisted is fatal: the worker releases the
// shard part-done and returns the error.
func TestEnginePersistFailureIsFatal(t *testing.T) {
	f := newFakeSource(0, 1, 2)
	boom := errors.New("ENOSPC")
	f.persist = func(context.Context, *Record) error { return boom }
	st, err := Work(context.Background(), enginePlan(t), f, nil, WorkOptions{Workers: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("Work returned %v, want the persist error", err)
	}
	if st.ShardsFinished != 0 || st.Fenced != 0 || st.Halted {
		t.Errorf("status = %+v", *st)
	}
	if f.seals != 0 || f.release != 1 {
		t.Errorf("sealed/released = %d/%d, want 0/1", f.seals, f.release)
	}
}

// A 40-job shard is persisted in batches of persistBatch, the remainder
// last; a 10-job shard in two halves, so its first batch lands mid-shard.
// Every batch lands before the seal.
func TestEngineBatchesPersist(t *testing.T) {
	plan, err := NewPlan("engine-batches", []population.Band{population.Rank1M},
		[]core.Stage{core.StageBase}, nil, 40, 99)
	if err != nil {
		t.Fatal(err)
	}
	plan.MaxCrowd, plan.MinClients, plan.Clients, plan.ShardJobs = 5, 5, 8, 40
	for n, want := range map[int]string{40: "[16 16 8]", 10: "[5 5]"} {
		jobs := make([]int, n)
		for j := range jobs {
			jobs[j] = j
		}
		f := newFakeSource(jobs...)
		f.seal = func(context.Context) error {
			if f.persisted != n {
				t.Errorf("%d jobs: sealed with %d records persisted", n, f.persisted)
			}
			return nil
		}
		st, err := Work(context.Background(), plan, f, nil, WorkOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if st.NewlyDone != n || st.ShardsFinished != 1 || f.seals != 1 {
			t.Errorf("%d jobs: status = %+v with %d seals, want one sealed shard", n, *st, f.seals)
		}
		if got := fmt.Sprint(f.batches); got != want {
			t.Errorf("%d jobs: Persist batches = %s, want %s", n, got, want)
		}
	}
}

// HaltAfter stops claiming jobs mid-shard: the in-flight job is stored,
// the shard is released part-done, and the stop is not an error.
func TestEngineHaltAfterReleasesPartDone(t *testing.T) {
	f := newFakeSource(0, 1, 2)
	st, err := Work(context.Background(), enginePlan(t), f, nil, WorkOptions{Workers: 1, HaltAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Halted || st.NewlyDone != 1 || st.ShardsFinished != 0 {
		t.Errorf("status = %+v, want halted after 1 job", *st)
	}
	if f.persisted != 1 || f.seals != 0 || f.release != 1 {
		t.Errorf("persisted/sealed/released = %d/%d/%d, want 1/0/1", f.persisted, f.seals, f.release)
	}
}

// ErrWait backs off and asks again; ErrComplete ends the worker. The idle
// waits are timers on the worker's clock: nothing is claimed until the
// test moves it.
func TestEngineWaitsThenCompletes(t *testing.T) {
	var asked atomic.Int64
	wait := func() (*Claim, error) { asked.Add(1); return nil, ErrWait }
	f := &fakeSource{claims: []func() (*Claim, error){wait, wait,
		func() (*Claim, error) { return nil, ErrComplete },
	}}
	rec := obs.NewSpanRecorder("waiter", 0)
	clk := clocktest.New(time.Unix(0, 0))
	type result struct {
		st  *WorkStatus
		err error
	}
	done := make(chan result)
	go func() {
		st, err := Work(context.Background(), enginePlan(t), f, nil, WorkOptions{Poll: time.Hour, Spans: rec, Clock: clk})
		done <- result{st, err}
	}()
	// The backoff doubles from Poll with jitter over [d/2, d): the first
	// wait is under one hour, the second under two.
	for i := int64(1); i <= 2; i++ {
		clk.BlockUntil(1)
		if n := asked.Load(); n != i {
			t.Fatalf("asked %d times before idle wait %d", n, i)
		}
		clk.Advance(2 * time.Hour)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.st.ShardsClaimed != 0 || r.st.NewlyDone != 0 {
		t.Errorf("status = %+v, want nothing claimed", *r.st)
	}
	idles := 0
	for _, sp := range rec.Drain(nil) {
		if sp.Cat == "idle" {
			idles++
		}
	}
	if idles != 2 || len(f.claims) != 0 {
		t.Errorf("%d idle spans with %d scripted claims unread, want 2 and 0", idles, len(f.claims))
	}
}

// The one keep-alive loop, on the fake clock: a tick is a beat, a
// transient failure skips that beat only, ErrFenced is reported once and
// ends the loop, and Stop returns with no beat in flight.
func TestKeepAlive(t *testing.T) {
	const ttl = 3 * time.Second
	clk := clocktest.New(time.Unix(0, 0))
	var (
		beats, lost int
		next        error
		beat        = make(chan struct{})
	)
	start := func() (stop func()) {
		return startKeepAlive(context.Background(), clk, ttl, func(context.Context) error {
			beats++
			defer func() { beat <- struct{}{} }()
			return next
		}, func() { lost++ })
	}
	tick := func() {
		clk.Advance(ttl / 3)
		<-beat
	}

	stop := start()
	for i := 0; i < 5; i++ {
		if i == 2 {
			next = errors.New("EIO")
		}
		tick()
		next = nil
	}
	if beats != 5 || lost != 0 {
		t.Fatalf("5 ticks, one failing with EIO: %d beats, %d lost; want 5 and 0", beats, lost)
	}
	stop()
	clk.Advance(ttl)
	if beats != 5 {
		t.Fatalf("%d beats after Stop", beats-5)
	}

	stop = start()
	next = ErrFenced
	tick()
	stop() // waits for the loop, which the fence has already ended
	clk.Advance(ttl)
	if beats != 6 || lost != 1 {
		t.Fatalf("a fenced beat: %d beats, %d lost; want one more beat, reported once, then silence", beats-5, lost)
	}
}

// Canceling the caller's context mid-shard releases the shard and
// surfaces the cancellation, whether the worker was measuring or idle.
func TestEngineContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	f := newFakeSource(0, 1, 2)
	st, err := Work(ctx, enginePlan(t), f, nil, WorkOptions{Workers: 1, OnClaim: func(int) { cancel() }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Work returned %v, want context.Canceled", err)
	}
	if st.Halted || st.ShardsFinished != 0 || f.seals != 0 || f.release != 1 {
		t.Errorf("status = %+v, sealed/released = %d/%d", *st, f.seals, f.release)
	}

	ctx, cancel = context.WithCancel(context.Background())
	idle := &fakeSource{claims: []func() (*Claim, error){
		func() (*Claim, error) { cancel(); return nil, ErrWait },
	}}
	if _, err := Work(ctx, enginePlan(t), idle, nil, WorkOptions{Poll: time.Hour}); !errors.Is(err, context.Canceled) {
		t.Fatalf("idle worker returned %v, want context.Canceled", err)
	}
}
