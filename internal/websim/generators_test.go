package websim

import (
	"math/rand"
	"testing"
	"time"

	"mfc/internal/content"
	"mfc/internal/netsim"
)

// blobSite hosts nothing a background visitor or a burst would ask for: a
// base page and a download, both at or above the 256 KiB cut, no query.
func blobSite(t *testing.T) *content.Site {
	t.Helper()
	site, err := content.NewSite("blobs", "/index.html", []content.Object{
		{URL: "/index.html", Kind: content.Classify("/index.html"), Size: 300 * 1024},
		{URL: "/disk.iso", Kind: content.Classify("/disk.iso"), Size: 2 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	return site
}

// assertStackless states the point of running the generators as tasks: an
// environment whose only processes are generators and their visitors never
// hands the token to a goroutine.
func assertStackless(t *testing.T, env *netsim.Env) {
	t.Helper()
	st := env.Stats()
	if st.Handoffs != 0 {
		t.Errorf("%d goroutine handoffs in an environment of generators and visitors, want 0", st.Handoffs)
	}
	if st.Dispatched == 0 {
		t.Error("nothing was dispatched")
	}
}

func TestBackgroundStopBeforeFirstArrival(t *testing.T) {
	env := netsim.NewEnv(1)
	srv := NewServer(env, Config{}, bgSite(t))
	bt := StartBackground(env, srv, BackgroundConfig{Rate: 20, BurstSize: 10, BurstEvery: time.Second})
	bt.Stop()
	if end := env.Run(0); end != 0 {
		t.Errorf("stopped generators kept the simulation alive until %v", end)
	}
	if bt.Sent() != 0 || srv.Served() != 0 {
		t.Errorf("Sent = %d, Served = %d after Stop before the first arrival", bt.Sent(), srv.Served())
	}
	assertStackless(t, env)
}

func TestBackgroundStopMidRunEndsArrivals(t *testing.T) {
	env := netsim.NewEnv(1)
	srv := NewServer(env, Config{}, bgSite(t))
	bt := StartBackground(env, srv, BackgroundConfig{Rate: 20, BurstSize: 10, BurstEvery: 2 * time.Second})
	var atStop uint64
	env.After(30*time.Second, func() {
		bt.Stop()
		atStop = bt.Sent()
	})
	end := env.Run(0)
	if atStop < 400 {
		t.Fatalf("only %d arrivals in 30s at 20 req/s plus bursts", atStop)
	}
	// Burst visitors already scheduled (within 200 ms) still arrive; no
	// generator draws another gap.
	if extra := bt.Sent() - atStop; extra > 10 {
		t.Errorf("%d arrivals after Stop, want at most the burst in flight", extra)
	}
	// Each loop notices the flag at its next wakeup: at most one Poisson
	// gap (capped at a minute) or one burst gap (capped at 10×BurstEvery)
	// and a request's worth of time later.
	if end > 30*time.Second+time.Minute+10*time.Second {
		t.Errorf("simulation ran until %v after a Stop at 30s", end)
	}
	if bt.Completed()+bt.Errored() != bt.Sent() {
		t.Errorf("Sent %d != Completed %d + Errored %d at exhaustion", bt.Sent(), bt.Completed(), bt.Errored())
	}
	assertStackless(t, env)
}

// SetRate is read when the next inter-arrival gap is drawn: the gap in
// progress is not cut short, every later one is at the new rate.
func TestBackgroundSetRateAppliesAtNextDraw(t *testing.T) {
	const seed, slow, fast = 1, 0.01, 200.0
	// The generator's first draw on a fresh environment is its first gap.
	firstGap := time.Duration(rand.New(rand.NewSource(seed)).ExpFloat64() / slow * float64(time.Second))
	if firstGap < time.Second || firstGap > time.Minute {
		t.Fatalf("seed %d draws a first gap of %v; pick one inside (1s, 1m)", seed, firstGap)
	}
	env := netsim.NewEnv(seed)
	srv := NewServer(env, Config{}, bgSite(t))
	srv.EnableAccessLog()
	bt := StartBackground(env, srv, BackgroundConfig{Rate: slow})
	env.After(time.Millisecond, func() { bt.SetRate(fast) })
	env.After(firstGap+10*time.Second, bt.Stop)
	env.Run(0)
	log := srv.AccessLog()
	if len(log) < 2 {
		t.Fatalf("%d arrivals, want thousands", len(log))
	}
	if log[0].At != firstGap {
		t.Errorf("first arrival at %v, want %v: the gap drawn at the old rate", log[0].At, firstGap)
	}
	// Ten seconds at 200/s.
	if n := len(log); n < 1600 || n > 2400 {
		t.Errorf("%d arrivals in the 10s after the first, want ~2000 at the new rate", n)
	}
	if bt.Rate() != fast {
		t.Errorf("Rate = %v, want %v", bt.Rate(), fast)
	}
}

func TestBackgroundNoEligibleURLEndsWithoutSpawning(t *testing.T) {
	env := netsim.NewEnv(1)
	srv := NewServer(env, Config{}, blobSite(t))
	bt := StartBackground(env, srv, BackgroundConfig{Rate: 50, BurstSize: 10, BurstEvery: time.Second})
	if end := env.Run(0); end != 0 {
		t.Errorf("generators with nothing to request ran until %v", end)
	}
	if bt.Sent() != 0 || srv.Served() != 0 {
		t.Errorf("Sent = %d, Served = %d on a site with no eligible URL", bt.Sent(), srv.Served())
	}
	// Two start entries — one per generator — and nothing else.
	if st := env.Stats(); st.Dispatched != 2 || st.Handoffs != 0 {
		t.Errorf("stats = %+v, want 2 dispatched start entries and no handoffs", st)
	}
}

func rampOn(srv *Server) *RampArrivals {
	return NewRampArrivals(srv, "ramp", FlashCrowdConfig{
		Method: "HEAD", URL: srv.Site().Base, ClientRTT: 40 * time.Millisecond,
		PeakRate: 50, RampUp: 10 * time.Second, Hold: 10 * time.Second,
	})
}

func TestRampArrivalsStopBeforeFirstArrival(t *testing.T) {
	for _, startAt := range []time.Duration{0, 5 * time.Second} {
		env := netsim.NewEnv(2)
		srv := NewServer(env, Config{}, bgSite(t))
		r := rampOn(srv)
		r.StartAt = startAt
		env.Spawn("ramp", r)
		r.Stop()
		// The flag is seen when the task first looks: at its start, or when
		// the StartAt sleep already pushed at spawn time ends.
		if end := env.Run(0); end != startAt {
			t.Errorf("StartAt %v: stopped ramp ran until %v", startAt, end)
		}
		if srv.Served() != 0 {
			t.Errorf("StartAt %v: %d requests served after Stop before the first arrival", startAt, srv.Served())
		}
		assertStackless(t, env)
	}
}

func TestRampArrivalsStopMidRun(t *testing.T) {
	env := netsim.NewEnv(2)
	srv := NewServer(env, Config{}, bgSite(t))
	r := rampOn(srv)
	arrivals := 0
	r.OnDone = func(*Visit, Response) { arrivals++ }
	env.Spawn("ramp", r)
	env.After(12*time.Second, r.Stop)
	end := env.Run(0)
	// ~250 arrivals on the ramp plus ~100 in two seconds of hold.
	if arrivals < 200 || arrivals > 500 {
		t.Errorf("%d arrivals before a Stop at 12s, want ~350", arrivals)
	}
	// At most one gap (capped at 2 s) passes before the task sees the flag,
	// and it spawns nobody then.
	if end > 14*time.Second {
		t.Errorf("ramp ran until %v after a Stop at 12s", end)
	}
	assertStackless(t, env)
}

func TestRampArrivalsRunsItsCourse(t *testing.T) {
	env := netsim.NewEnv(2)
	srv := NewServer(env, Config{}, bgSite(t))
	r := rampOn(srv)
	r.StartAt = 3 * time.Second
	var firstAt, lastAt time.Duration
	arrivals := 0
	r.OnDone = func(v *Visit, _ Response) {
		if arrivals == 0 {
			firstAt = v.At
		}
		arrivals++
		lastAt = v.At
	}
	env.Spawn("ramp", r)
	env.Run(0)
	// 50/s peak: ~250 over the ramp, ~500 over the hold.
	if arrivals < 600 || arrivals > 900 {
		t.Errorf("%d arrivals over a 10s ramp and 10s hold at 50/s, want ~750", arrivals)
	}
	if firstAt < 3*time.Second {
		t.Errorf("first arrival at %v, before StartAt", firstAt)
	}
	if lastAt < 22*time.Second || lastAt > 25*time.Second+time.Millisecond {
		t.Errorf("last arrival at %v, want shortly after the hold ends at 23s", lastAt)
	}
	assertStackless(t, env)
}

func TestRampArrivalsNoURLEndsWithoutSpawning(t *testing.T) {
	env := netsim.NewEnv(2)
	srv := NewServer(env, Config{}, bgSite(t))
	r := NewRampArrivals(srv, "ramp", FlashCrowdConfig{PeakRate: 50})
	env.Spawn("ramp", r)
	if end := env.Run(0); end != 0 {
		t.Errorf("ramp without a URL ran until %v", end)
	}
	if st := env.Stats(); st.Dispatched != 1 || srv.Served() != 0 {
		t.Errorf("stats = %+v, served = %d; want the start entry alone", st, srv.Served())
	}
}

// The flash crowd is a baseline request and then the ramp, all on one
// stackless process.
func TestFlashCrowdIsStackless(t *testing.T) {
	env := netsim.NewEnv(3)
	srv := NewServer(env, Config{}, bgSite(t))
	fc := RunFlashCrowd(env, srv, FlashCrowdConfig{
		URL: srv.Site().Base, PeakRate: 40, RampUp: 5 * time.Second, Hold: 5 * time.Second,
	})
	StartBackground(env, srv, BackgroundConfig{Rate: 5, BurstSize: 5, BurstEvery: 3 * time.Second}).Stop()
	env.Run(0)
	if fc.BaseResp <= 0 || len(fc.Samples) < 200 {
		t.Errorf("BaseResp = %v with %d samples; the crowd did not run", fc.BaseResp, len(fc.Samples))
	}
	assertStackless(t, env)
}
