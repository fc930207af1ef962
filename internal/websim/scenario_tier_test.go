package websim

import (
	"testing"
	"time"

	"mfc/internal/content"
	"mfc/internal/netsim"
)

// Tests for the scenario-facing server tiers: the leaky-bucket rate
// limiter (delay and reject modes), the CDN/cache front tier, and the
// per-request path-loss stall.

func TestRateLimiterDelaySpacesAdmissions(t *testing.T) {
	env := netsim.NewEnv(1)
	cfg := Config{RateLimit: RateLimit{Rate: 10, Burst: 1}} // gap = 100ms, delay mode
	srv := NewServer(env, cfg, smallSite(t))
	var done [3]time.Duration
	for i := 0; i < 3; i++ {
		i := i
		env.Go("c", func(p *netsim.Proc) {
			resp := srv.Serve(p, "t", Request{Method: "HEAD", URL: "/index.html"})
			if resp.Err != nil {
				t.Errorf("request %d errored: %v", i, resp.Err)
			}
			done[i] = p.Now()
		})
	}
	env.Run(0)
	// Three simultaneous arrivals, one token: admissions at ~0, 100ms,
	// 200ms. Completion order matches arrival (proc spawn) order.
	for i, want := range []time.Duration{0, 100 * time.Millisecond, 200 * time.Millisecond} {
		if d := done[i] - want; d < 0 || d > 20*time.Millisecond {
			t.Errorf("request %d done at %v, want ~%v", i, done[i], want)
		}
	}
	if srv.RateLimited() != 0 {
		t.Errorf("RateLimited = %d in delay mode, want 0", srv.RateLimited())
	}
}

func TestRateLimiterRejectReturns429(t *testing.T) {
	env := netsim.NewEnv(1)
	cfg := Config{RateLimit: RateLimit{Rate: 10, Burst: 1, Reject: true}}
	srv := NewServer(env, cfg, smallSite(t))
	admitted, rejected := 0, 0
	for i := 0; i < 4; i++ {
		env.Go("c", func(p *netsim.Proc) {
			resp := srv.Serve(p, "t", Request{Method: "HEAD", URL: "/index.html"})
			switch {
			case resp.Err == ErrRateLimited && resp.Status == 429:
				rejected++
			case resp.Err == nil:
				admitted++
			default:
				t.Errorf("unexpected response: %+v", resp)
			}
		})
	}
	env.Run(0)
	if admitted != 1 || rejected != 3 {
		t.Errorf("admitted=%d rejected=%d, want 1/3", admitted, rejected)
	}
	if srv.RateLimited() != 3 {
		t.Errorf("RateLimited counter = %d, want 3", srv.RateLimited())
	}
}

func TestRateLimiterBurstAdmitsInstantlyAfterIdle(t *testing.T) {
	env := netsim.NewEnv(1)
	cfg := Config{RateLimit: RateLimit{Rate: 10, Burst: 3, Reject: true}}
	srv := NewServer(env, cfg, smallSite(t))
	admitted := 0
	// A long-idle bucket refills to exactly RateLimit.Burst tokens: of 6
	// simultaneous arrivals, 3 admit instantly and 3 bounce.
	for i := 0; i < 6; i++ {
		env.GoAfter("c", 10*time.Second, func(p *netsim.Proc) {
			resp := srv.Serve(p, "t", Request{Method: "HEAD", URL: "/index.html"})
			if resp.Err == nil {
				admitted++
			}
		})
	}
	env.Run(0)
	if admitted != 3 {
		t.Errorf("admitted = %d after idle, want exactly burst (3)", admitted)
	}
}

func TestRateLimiterDelayRespectsDeadline(t *testing.T) {
	env := netsim.NewEnv(1)
	cfg := Config{RateLimit: RateLimit{Rate: 1, Burst: 1}} // gap = 1s
	srv := NewServer(env, cfg, smallSite(t))
	var second Response
	env.Go("a", func(p *netsim.Proc) {
		srv.Serve(p, "t", Request{Method: "HEAD", URL: "/index.html"})
	})
	env.Go("b", func(p *netsim.Proc) {
		// Would be admitted at t=1s, but the deadline is 200ms out.
		second = srv.Serve(p, "t", Request{
			Method: "HEAD", URL: "/index.html", Deadline: 200 * time.Millisecond,
		})
	})
	env.Run(0)
	if second.Err != ErrTimeout {
		t.Errorf("queued-past-deadline request returned %+v, want ErrTimeout", second)
	}
	if got := env.Now(); got > 500*time.Millisecond {
		t.Errorf("simulation ran to %v; the tarpit must not hold procs past their deadline", got)
	}
}

func TestEdgeCacheServesStaticNotBaseNotDynamic(t *testing.T) {
	env := netsim.NewEnv(1)
	cfg := Config{FrontCache: FrontCache{HitRatio: 1.0}, ParseCPU: time.Millisecond}
	srv := NewServer(env, cfg, smallSite(t))
	var base, static, dynamic Response
	env.Go("c", func(p *netsim.Proc) {
		base = srv.Serve(p, "t", Request{Method: "GET", URL: "/index.html"})
		static = srv.Serve(p, "t", Request{Method: "GET", URL: "/big.bin"})
		dynamic = srv.Serve(p, "t", Request{Method: "GET", URL: "/q?x=1"})
	})
	env.Run(0)
	for name, r := range map[string]Response{"base": base, "static": static, "dynamic": dynamic} {
		if r.Err != nil || r.Status != 200 {
			t.Fatalf("%s response = %+v", name, r)
		}
	}
	// Ratio 1.0: the static object is always an edge hit; the base page
	// and the dynamic query must still reach the origin.
	if srv.EdgeHits() != 1 {
		t.Errorf("EdgeHits = %d, want exactly 1 (the static object)", srv.EdgeHits())
	}
	if static.Bytes != 1_000_000 {
		t.Errorf("edge hit returned %d bytes, want the full object", static.Bytes)
	}
}

func TestEdgeCacheHitSkipsOriginQueues(t *testing.T) {
	// With one worker wedged on a slow request, an edge hit must complete
	// immediately — it never touches the origin's worker pool.
	env := netsim.NewEnv(1)
	cfg := Config{FrontCache: FrontCache{HitRatio: 1.0}, Workers: 1, Backlog: 0, ParseCPU: 5 * time.Second}
	srv := NewServer(env, cfg, smallSite(t))
	var hitDone time.Duration
	env.Go("wedge", func(p *netsim.Proc) {
		srv.Serve(p, "t", Request{Method: "GET", URL: "/index.html"}) // origin, slow
	})
	env.GoAfter("hit", 10*time.Millisecond, func(p *netsim.Proc) {
		resp := srv.Serve(p, "t", Request{Method: "GET", URL: "/big.bin"})
		if resp.Err != nil {
			t.Errorf("edge hit failed: %+v", resp)
		}
		hitDone = p.Now()
	})
	env.Run(0)
	if hitDone > time.Second {
		t.Errorf("edge hit completed at %v; it queued behind the origin worker", hitDone)
	}
	if srv.EdgeHits() != 1 {
		t.Errorf("EdgeHits = %d, want 1", srv.EdgeHits())
	}
}

func TestPathLossStallsLargeResponses(t *testing.T) {
	serveBig := func(loss float64) (time.Duration, Config) {
		env := netsim.NewEnv(1)
		srv := NewServer(env, Config{PathLoss: loss}, smallSite(t))
		var d time.Duration
		env.Go("c", func(p *netsim.Proc) {
			t0 := p.Now()
			resp := srv.Serve(p, "t", Request{Method: "GET", URL: "/big.bin"})
			if resp.Err != nil {
				t.Errorf("loss=%v: %+v", loss, resp.Err)
			}
			d = p.Now() - t0
		})
		env.Run(0)
		return d, srv.Config()
	}
	const loss = 0.9
	clean, _ := serveBig(0)
	lossy, cfg := serveBig(loss)
	// 1MB is ~685 packets (capped at 64 for the stall draw): at 90% loss
	// the stall probability is 1-0.1^64 ~ 1, so the response carries one
	// full lossRTO over the clean run, and its transfer crosses the access
	// link at (1-loss) of the clean goodput.
	bytes := float64(1_000_000 + headerBytes)
	slower := bytes/(cfg.AccessBandwidth*(1-loss)) - bytes/cfg.AccessBandwidth
	want := lossRTO + time.Duration(slower*float64(time.Second))
	if diff := lossy - clean; diff < want-time.Microsecond || diff > want+time.Microsecond {
		t.Errorf("loss added %v, want %v (the %v RTO plus the transfer at %g goodput)", diff, want, lossRTO, 1-loss)
	}
}

func TestSetPathLossMidRun(t *testing.T) {
	env := netsim.NewEnv(1)
	srv := NewServer(env, Config{}, smallSite(t))
	if srv.PathLoss() != 0 {
		t.Fatalf("PathLoss = %v at start", srv.PathLoss())
	}
	srv.SetPathLoss(0.05)
	if srv.PathLoss() != 0.05 || srv.AccessLink().Loss() != 0.05 {
		t.Errorf("PathLoss = %v, access loss = %v after set, want 0.05 on both", srv.PathLoss(), srv.AccessLink().Loss())
	}
	srv.SetPathLoss(-1)
	if srv.PathLoss() != 0 || srv.AccessLink().Loss() != 0 {
		t.Errorf("PathLoss = %v, access loss = %v after negative set, want clamp to 0 on both", srv.PathLoss(), srv.AccessLink().Loss())
	}
}

// Satellite: background load and a flash crowd superposed on one server.
// The monitor must see the combined load — the crowd window's utilization
// and pending depth strictly dominate the background-only window — and
// background service must degrade while the crowd holds.
func TestBackgroundAndFlashCrowdSuperpose(t *testing.T) {
	env := netsim.NewEnv(7)
	site := content.Generate("super", 7, content.GenConfig{Pages: 12, Queries: 4})
	srv := NewServer(env, Config{ParseCPU: 8 * time.Millisecond, Cores: 1}, site)
	srv.EnableAccessLog()
	mon := NewMonitor(env, srv, 500*time.Millisecond)

	bg := StartBackground(env, srv, BackgroundConfig{Rate: 10})
	fc := RunFlashCrowd(env, srv, FlashCrowdConfig{
		URL: site.Base, PeakRate: 60, RampUp: 20 * time.Second, Hold: 20 * time.Second,
	})
	env.After(60*time.Second, func() {
		bg.Stop()
		mon.Stop()
	})
	env.Run(2 * time.Minute)

	if sent := bgArrived(srv); sent == 0 || len(fc.Samples) == 0 {
		t.Fatalf("no superposition: background sent %d, crowd sampled %d", sent, len(fc.Samples))
	}
	// Background alone occupies the first seconds (the ramp starts near
	// zero); the crowd's hold is 20s-40s.
	quiet := mon.Window(0, 5*time.Second)
	peak := mon.Window(25*time.Second, 40*time.Second)
	if peak.CPUUtil <= quiet.CPUUtil {
		t.Errorf("peak CPU %v not above background-only %v", peak.CPUUtil, quiet.CPUUtil)
	}
	if peak.Pending <= quiet.Pending {
		t.Errorf("peak pending %d not above background-only %d", peak.Pending, quiet.Pending)
	}
	// The crowd at hold exceeds the 10/s background alone by construction;
	// the server must have seen the sum, not either stream in isolation.
	if peak.Pending < 2 {
		t.Errorf("peak pending = %d; superposed load never queued", peak.Pending)
	}
}
