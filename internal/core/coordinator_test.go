package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"mfc/internal/content"
)

// fakeClock is a manually advanced virtual clock.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration    { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now += d }

// fakePlatform drives the coordinator with scripted clients whose
// normalized response times follow a configurable function of the crowd.
type fakePlatform struct {
	clock   *fakeClock
	clients []Client
}

func (p *fakePlatform) Clock() Clock                     { return p.clock }
func (p *fakePlatform) ActiveClients() ([]Client, error) { return p.clients, nil }

// fakeClient responds with base + delayFn(crowdApprox) where crowdApprox is
// inferred from the number of Fire calls in the current epoch batch — the
// platform injects it directly for determinism.
type fakeClient struct {
	id      string
	delayFn func(epoch, crowd int) time.Duration
	// epochCrowd records the crowd size the coordinator scheduled, shared
	// across the crowd via the harness.
	harness *fakeHarness
	results map[int][]Sample
}

type fakeHarness struct {
	epochCrowd map[int]int // epoch -> participants
}

func newFakePlatform(n int, delayFn func(epoch, crowd int) time.Duration) *fakePlatform {
	h := &fakeHarness{epochCrowd: make(map[int]int)}
	p := &fakePlatform{clock: &fakeClock{}}
	for i := 0; i < n; i++ {
		p.clients = append(p.clients, &fakeClient{
			id:      fmt.Sprintf("fake%03d", i),
			delayFn: delayFn,
			harness: h,
			results: make(map[int][]Sample),
		})
	}
	return p
}

func (c *fakeClient) ID() string { return c.id }

func (c *fakeClient) ControlRTT() (time.Duration, error) {
	return 20 * time.Millisecond, nil
}

func (c *fakeClient) MeasureTarget(reqs []Request) (Baseline, error) {
	bl := Baseline{TargetRTT: 40 * time.Millisecond, BaseTimes: map[string]time.Duration{}}
	for _, rq := range reqs {
		bl.BaseTimes[rq.URL] = 30 * time.Millisecond
	}
	return bl, nil
}

func (c *fakeClient) Fire(epoch int, arriveAt time.Duration, reqs []Request, timeout time.Duration) {
	c.harness.epochCrowd[epoch]++
	crowd := c.harness.epochCrowd[epoch] // grows as the batch is scheduled
	_ = crowd
	for _, rq := range reqs {
		// Delay computed lazily at Collect time, when the whole crowd is
		// known; store placeholders now.
		c.results[epoch] = append(c.results[epoch], Sample{
			Client: c.id, URL: rq.URL, Status: 200, Base: 30 * time.Millisecond,
		})
	}
}

func (c *fakeClient) Collect(epoch int) ([]Sample, bool) {
	crowd := c.harness.epochCrowd[epoch]
	out := make([]Sample, len(c.results[epoch]))
	for i, s := range c.results[epoch] {
		s.Resp = s.Base + c.delayFn(epoch, crowd)
		out[i] = s
	}
	return out, true
}

func testProfile() *content.Profile {
	return &content.Profile{
		Host:    "fake",
		BaseURL: "/index.html",
		ByKind:  map[content.Kind]int{},
		LargeObjects: []content.Object{
			{URL: "/big.bin", Size: 500 * 1024},
		},
		SmallQueries: []content.Object{
			{URL: "/q?a", Size: 1024, Dynamic: true},
			{URL: "/q?b", Size: 1024, Dynamic: true},
		},
	}
}

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.MinClients = 20
	cfg.MaxCrowd = 50
	cfg.Step = 5
	cfg.EpochGap = time.Second
	return cfg
}

func TestStageStopsAtThresholdCrossing(t *testing.T) {
	// 4ms per crowd member: crosses 100ms at crowd 26 -> first eligible
	// ramp epoch over θ is 30.
	plat := newFakePlatform(60, func(_, crowd int) time.Duration {
		return time.Duration(crowd) * 4 * time.Millisecond
	})
	coord := New(plat, testCfg())
	if err := coord.Register(); err != nil {
		t.Fatal(err)
	}
	sr := coord.RunStage(context.Background(), StageBase, testProfile())
	if sr.Verdict != VerdictStopped {
		t.Fatalf("verdict = %v, want Stopped", sr.Verdict)
	}
	if sr.StoppingCrowd != 30 {
		t.Errorf("StoppingCrowd = %d, want 30", sr.StoppingCrowd)
	}
	// Check-phase epochs must be present: 29, 30, or 31 appears.
	foundCheck := false
	for _, e := range sr.Epochs {
		if e.Kind != EpochRamp {
			foundCheck = true
		}
	}
	if !foundCheck {
		t.Error("no check-phase epochs recorded")
	}
}

func TestStageNoStopWhenFlat(t *testing.T) {
	plat := newFakePlatform(60, func(_, _ int) time.Duration { return 2 * time.Millisecond })
	coord := New(plat, testCfg())
	if err := coord.Register(); err != nil {
		t.Fatal(err)
	}
	sr := coord.RunStage(context.Background(), StageBase, testProfile())
	if sr.Verdict != VerdictNoStop {
		t.Fatalf("verdict = %v, want NoStop", sr.Verdict)
	}
	if got := len(sr.Epochs); got != 10 { // 5,10,...,50
		t.Errorf("epochs = %d, want 10", got)
	}
	if sr.FirstExceed != 0 {
		t.Errorf("FirstExceed = %d, want 0", sr.FirstExceed)
	}
}

func TestMinSignificantSuppressesEarlyStops(t *testing.T) {
	// Massive degradation from crowd 1, but stops may only confirm at >= 15.
	plat := newFakePlatform(60, func(_, crowd int) time.Duration {
		return 500 * time.Millisecond
	})
	coord := New(plat, testCfg())
	if err := coord.Register(); err != nil {
		t.Fatal(err)
	}
	sr := coord.RunStage(context.Background(), StageBase, testProfile())
	if sr.Verdict != VerdictStopped {
		t.Fatalf("verdict = %v, want Stopped", sr.Verdict)
	}
	if sr.StoppingCrowd != 15 {
		t.Errorf("StoppingCrowd = %d, want 15 (the minSignificant floor)", sr.StoppingCrowd)
	}
	if sr.FirstExceed != 5 {
		t.Errorf("FirstExceed = %d, want 5 (footnote-2 post-analysis)", sr.FirstExceed)
	}
}

func TestCheckPhaseRejectsTransient(t *testing.T) {
	// The first epoch with crowd 20 spikes as a whole (all samples); the
	// check phase re-tests in fresh epochs where the spike is gone, so the
	// stage must progress to NoStop.
	spikeEpoch := 0
	plat := newFakePlatform(60, func(epoch, crowd int) time.Duration {
		if crowd == 20 && (spikeEpoch == 0 || spikeEpoch == epoch) {
			spikeEpoch = epoch
			return 400 * time.Millisecond
		}
		return time.Millisecond
	})
	coord := New(plat, testCfg())
	if err := coord.Register(); err != nil {
		t.Fatal(err)
	}
	sr := coord.RunStage(context.Background(), StageBase, testProfile())
	if sr.Verdict != VerdictNoStop {
		t.Fatalf("verdict = %v, want NoStop (transient rejected)", sr.Verdict)
	}
	if sr.FirstExceed != 20 {
		t.Errorf("FirstExceed = %d, want 20", sr.FirstExceed)
	}
}

func TestCheckPhaseDisabledAcceptsTransient(t *testing.T) {
	spikeEpoch := 0
	plat := newFakePlatform(60, func(epoch, crowd int) time.Duration {
		if crowd == 20 && (spikeEpoch == 0 || spikeEpoch == epoch) {
			spikeEpoch = epoch
			return 400 * time.Millisecond
		}
		return time.Millisecond
	})
	cfg := testCfg()
	cfg.CheckPhase = false
	coord := New(plat, cfg)
	if err := coord.Register(); err != nil {
		t.Fatal(err)
	}
	sr := coord.RunStage(context.Background(), StageBase, testProfile())
	if sr.Verdict != VerdictStopped || sr.StoppingCrowd != 20 {
		t.Fatalf("verdict = %v at %d, want Stopped at 20", sr.Verdict, sr.StoppingCrowd)
	}
}

func TestTooFewClientsAborts(t *testing.T) {
	plat := newFakePlatform(10, func(_, _ int) time.Duration { return 0 })
	cfg := testCfg()
	cfg.MinClients = 50
	coord := New(plat, cfg)
	if err := coord.Register(); err == nil {
		t.Fatal("Register accepted 10 clients with MinClients=50")
	}
	if _, err := coord.RunExperiment(context.Background(), "fake", testProfile()); err == nil {
		t.Error("RunExperiment did not propagate the abort")
	}
}

func TestStageUnavailableWithoutContent(t *testing.T) {
	plat := newFakePlatform(60, func(_, _ int) time.Duration { return 0 })
	coord := New(plat, testCfg())
	if err := coord.Register(); err != nil {
		t.Fatal(err)
	}
	prof := &content.Profile{Host: "x", BaseURL: "/", ByKind: map[content.Kind]int{}}
	if sr := coord.RunStage(context.Background(), StageLargeObject, prof); sr.Verdict != VerdictUnavailable {
		t.Errorf("LargeObject verdict = %v, want Unavailable", sr.Verdict)
	}
	if sr := coord.RunStage(context.Background(), StageSmallQuery, prof); sr.Verdict != VerdictUnavailable {
		t.Errorf("SmallQuery verdict = %v, want Unavailable", sr.Verdict)
	}
	if sr := coord.RunStage(context.Background(), StageBase, prof); sr.Verdict == VerdictUnavailable {
		t.Error("Base stage requires no special content; must not be Unavailable")
	}
}

func TestSmallQueryAssignsUniqueObjects(t *testing.T) {
	plat := newFakePlatform(30, func(_, _ int) time.Duration { return 0 })
	cfg := testCfg()
	coord := New(plat, cfg)
	if err := coord.Register(); err != nil {
		t.Fatal(err)
	}
	reqs, err := coord.stageRequests(StageSmallQuery, testProfile())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, rq := range reqs {
		seen[rq.URL]++
	}
	// Two distinct queries across 30 clients: both must be used.
	if len(seen) != 2 {
		t.Errorf("distinct query URLs = %d, want 2", len(seen))
	}
}

func TestLargeObjectUsesSameObjectForAll(t *testing.T) {
	plat := newFakePlatform(30, func(_, _ int) time.Duration { return 0 })
	coord := New(plat, testCfg())
	if err := coord.Register(); err != nil {
		t.Fatal(err)
	}
	reqs, err := coord.stageRequests(StageLargeObject, testProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, rq := range reqs {
		if rq.URL != "/big.bin" || rq.Method != "GET" {
			t.Fatalf("request = %+v, want GET /big.bin for everyone", rq)
		}
	}
}

func TestBaseStageUsesHEAD(t *testing.T) {
	plat := newFakePlatform(30, func(_, _ int) time.Duration { return 0 })
	coord := New(plat, testCfg())
	if err := coord.Register(); err != nil {
		t.Fatal(err)
	}
	reqs, err := coord.stageRequests(StageBase, testProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, rq := range reqs {
		if rq.Method != "HEAD" || rq.URL != "/index.html" {
			t.Fatalf("request = %+v, want HEAD /index.html", rq)
		}
	}
}

func TestMultiRequestSchedulesMRequestsPerClient(t *testing.T) {
	plat := newFakePlatform(60, func(_, _ int) time.Duration { return 0 })
	cfg := testCfg()
	cfg.MultiRequest = 3
	cfg.MaxCrowd = 10
	coord := New(plat, cfg)
	if err := coord.Register(); err != nil {
		t.Fatal(err)
	}
	sr := coord.RunStage(context.Background(), StageBase, testProfile())
	for _, e := range sr.Epochs {
		if e.Scheduled != e.Crowd*3 {
			t.Errorf("epoch crowd %d scheduled %d, want %d", e.Crowd, e.Scheduled, e.Crowd*3)
		}
		if e.Received != e.Scheduled {
			t.Errorf("epoch crowd %d received %d of %d", e.Crowd, e.Received, e.Scheduled)
		}
	}
}

// Property: for any linear degradation slope, the confirmed stopping crowd
// brackets the true threshold crossing — never below it (modulo the
// minSignificant floor), never more than one step plus the check margin
// above it.
func TestStoppingCrowdBracketsCrossingProperty(t *testing.T) {
	for _, slopeMs := range []int{2, 3, 4, 6, 8, 12, 20} {
		slope := time.Duration(slopeMs) * time.Millisecond
		plat := newFakePlatform(80, func(_, crowd int) time.Duration {
			return time.Duration(crowd) * slope
		})
		cfg := testCfg()
		cfg.MaxCrowd = 70
		coord := New(plat, cfg)
		if err := coord.Register(); err != nil {
			t.Fatal(err)
		}
		sr := coord.RunStage(context.Background(), StageBase, testProfile())
		trueCross := int(cfg.Threshold/slope) + 1
		wantLo := trueCross
		if wantLo < minSignificant {
			wantLo = minSignificant
		}
		wantHi := wantLo + cfg.Step // ramp granularity
		if trueCross > cfg.MaxCrowd {
			if sr.Verdict != VerdictNoStop {
				t.Errorf("slope %v: verdict %v, want NoStop (crossing %d beyond max)",
					slope, sr.Verdict, trueCross)
			}
			continue
		}
		if sr.Verdict != VerdictStopped {
			t.Errorf("slope %v: verdict %v, want Stopped near %d", slope, sr.Verdict, trueCross)
			continue
		}
		if sr.StoppingCrowd < wantLo || sr.StoppingCrowd > wantHi {
			t.Errorf("slope %v: stop %d outside [%d, %d] (true crossing %d)",
				slope, sr.StoppingCrowd, wantLo, wantHi, trueCross)
		}
	}
}

func TestStaggerUniformSpacesArrivals(t *testing.T) {
	plat := newFakePlatform(60, func(_, _ int) time.Duration { return 0 })
	cfg := testCfg()
	cfg.Stagger = 50 * time.Millisecond
	cfg.MaxCrowd = 10
	coord := New(plat, cfg)
	if err := coord.Register(); err != nil {
		t.Fatal(err)
	}
	sr := coord.RunStage(context.Background(), StageBase, testProfile())
	// The epoch wait must cover the staggered tail: with 10 clients at
	// 50ms spacing the epoch spans at least 450ms extra.
	if len(sr.Epochs) != 2 {
		t.Fatalf("epochs = %d", len(sr.Epochs))
	}
	e := sr.Epochs[1]
	if e.Done-e.ArriveAt < 450*time.Millisecond {
		t.Errorf("epoch window %v too short for the staggered tail", e.Done-e.ArriveAt)
	}
}

func TestMeasurerReservationPreservesMinClients(t *testing.T) {
	plat := newFakePlatform(24, func(_, _ int) time.Duration { return 0 })
	cfg := testCfg()
	cfg.MinClients = 20
	cfg.MaxCrowd = 20
	cfg.Measurers = []Request{{Method: "HEAD", URL: "/index.html"}}
	cfg.MeasurerReplicas = 10 // would eat past the minimum if unchecked
	coord := New(plat, cfg)
	if err := coord.Register(); err != nil {
		t.Fatal(err)
	}
	sr := coord.RunStage(context.Background(), StageBase, testProfile())
	if sr.Verdict == VerdictAborted {
		t.Fatal("measurer reservation starved the crowd below MinClients")
	}
	if got := len(coord.Measurers()["/index.html"]); got != 4 {
		t.Errorf("reserved %d measurers, want the 4 spare clients", got)
	}
}

func TestMeasurerMediansRecorded(t *testing.T) {
	plat := newFakePlatform(40, func(_, crowd int) time.Duration {
		return time.Duration(crowd) * time.Millisecond
	})
	cfg := testCfg()
	cfg.MaxCrowd = 15
	cfg.Measurers = []Request{{Method: "GET", URL: "/q?a"}}
	cfg.MeasurerReplicas = 3
	coord := New(plat, cfg)
	if err := coord.Register(); err != nil {
		t.Fatal(err)
	}
	sr := coord.RunStage(context.Background(), StageBase, testProfile())
	for _, e := range sr.Epochs {
		if _, ok := e.MeasurerMedians["/q?a"]; !ok {
			t.Errorf("epoch crowd %d: no measurer median", e.Crowd)
		}
	}
}

func TestResultStringMentionsVerdicts(t *testing.T) {
	plat := newFakePlatform(60, func(_, crowd int) time.Duration {
		return time.Duration(crowd) * 10 * time.Millisecond
	})
	coord := New(plat, testCfg())
	res, err := coord.RunExperiment(context.Background(), "fake-host", testProfile())
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "fake-host") || !strings.Contains(s, "Base") {
		t.Errorf("String() = %q", s)
	}
	if res.TotalRequests() == 0 {
		t.Error("TotalRequests = 0")
	}
}
