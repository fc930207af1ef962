package websim

import (
	"testing"
	"time"

	"mfc/internal/content"
	"mfc/internal/netsim"
)

// Tests for deeper pipeline behaviours: backend query paths, synthetic
// serving, transmit, and the access-link interplay.

func TestQueryBackendTimeHoldsPoolNotCPU(t *testing.T) {
	env := netsim.NewEnv(1)
	cfg := Config{
		DBConns:          2,
		QueryBackendTime: 40 * time.Millisecond,
		QueryCPU:         time.Microsecond, // isolate the backend path (0 would default to 20ms)
		Cores:            4,
	}
	srv := NewServer(env, cfg, smallSite(t))
	var done []time.Duration
	for i := 0; i < 4; i++ {
		env.Go("q", func(p *netsim.Proc) {
			srv.Serve(p, "t", Request{Method: "GET", URL: "/q?x=1"})
			done = append(done, p.Now())
		})
	}
	env.Run(0)
	// Two waves of two through the 2-connection pool: ~40ms and ~80ms.
	if len(done) != 4 {
		t.Fatalf("done = %v", done)
	}
	fast, slow := 0, 0
	for _, d := range done {
		if d < 60*time.Millisecond {
			fast++
		} else if d < 120*time.Millisecond {
			slow++
		}
	}
	if fast != 2 || slow != 2 {
		t.Errorf("waves = %d fast, %d slow (%v)", fast, slow, done)
	}
	// The CPU was essentially idle (backend time is remote): only parse,
	// render and the microsecond query cost remain.
	if used := srv.cpu.BytesSent(); used > 0.02 {
		t.Errorf("CPU consumed %v core-seconds; backend time should not burn local CPU", used)
	}
}

func TestQueryCacheHitSkipsBackend(t *testing.T) {
	env := netsim.NewEnv(1)
	cfg := Config{
		DBConns:          1,
		QueryBackendTime: 100 * time.Millisecond,
		QueryCacheBytes:  1 << 20,
	}
	srv := NewServer(env, cfg, smallSite(t))
	var first, second time.Duration
	env.Go("c", func(p *netsim.Proc) {
		t0 := p.Now()
		srv.Serve(p, "t", Request{Method: "GET", URL: "/q?x=1"})
		first = p.Now() - t0
		t0 = p.Now()
		srv.Serve(p, "t", Request{Method: "GET", URL: "/q?x=1"})
		second = p.Now() - t0
	})
	env.Run(0)
	if first < 100*time.Millisecond {
		t.Errorf("cold query = %v, want >= backend time", first)
	}
	if second > 20*time.Millisecond {
		t.Errorf("cached query = %v, want cheap", second)
	}
}

func TestSyntheticServerAppliesModel(t *testing.T) {
	env := netsim.NewEnv(1)
	cfg := Config{Synthetic: StepModel{Knee: 3, High: 300 * time.Millisecond}}
	srv := NewServer(env, cfg, smallSite(t))
	var times []time.Duration
	for i := 0; i < 5; i++ {
		env.Go("c", func(p *netsim.Proc) {
			t0 := p.Now()
			srv.Serve(p, "t", Request{Method: "HEAD", URL: "/index.html"})
			times = append(times, p.Now()-t0)
		})
	}
	env.Run(0)
	// Five concurrent requests exceed the knee of 3: all delayed by High.
	for _, d := range times {
		if d < 300*time.Millisecond {
			t.Errorf("request took %v; the step model should delay all five", d)
		}
	}
}

func TestSyntheticTimeoutRespected(t *testing.T) {
	env := netsim.NewEnv(1)
	cfg := Config{Synthetic: StepModel{Knee: 0, High: 5 * time.Second}}
	srv := NewServer(env, cfg, smallSite(t))
	var resp Response
	env.Go("c", func(p *netsim.Proc) {
		resp = srv.Serve(p, "t", Request{
			Method: "HEAD", URL: "/index.html", Deadline: 100 * time.Millisecond,
		})
	})
	env.Run(0)
	if resp.Err != ErrTimeout {
		t.Errorf("resp = %+v, want timeout", resp)
	}
}

func TestTransmitCappedByClientBandwidth(t *testing.T) {
	env := netsim.NewEnv(1)
	cfg := Config{AccessBandwidth: 1e9} // huge server pipe
	srv := NewServer(env, cfg, smallSite(t))
	var took time.Duration
	env.Go("c", func(p *netsim.Proc) {
		t0 := p.Now()
		srv.Serve(p, "t", Request{
			Method: "GET", URL: "/big.bin", ClientBW: 1e5, // 100 KB/s client
		})
		took = p.Now() - t0
	})
	env.Run(0)
	// 1 MB at 100 KB/s ≈ 10s regardless of the server pipe.
	if took < 9*time.Second {
		t.Errorf("transfer took %v, want ~10s (client-capped)", took)
	}
}

func TestSlowStartPenaltyAppliedWithRTT(t *testing.T) {
	run := func(rtt time.Duration) time.Duration {
		env := netsim.NewEnv(1)
		srv := NewServer(env, Config{AccessBandwidth: 1e9}, smallSite(t))
		var took time.Duration
		env.Go("c", func(p *netsim.Proc) {
			t0 := p.Now()
			srv.Serve(p, "t", Request{Method: "GET", URL: "/big.bin", ClientRTT: rtt})
			took = p.Now() - t0
		})
		env.Run(0)
		return took
	}
	noRTT, withRTT := run(0), run(100*time.Millisecond)
	if withRTT < noRTT+500*time.Millisecond {
		t.Errorf("slow start with 100ms RTT added only %v", withRTT-noRTT)
	}
}

func TestFullSiteServesEveryGeneratedObject(t *testing.T) {
	env := netsim.NewEnv(1)
	site := content.Generate("full", 9, content.GenConfig{Pages: 10, Queries: 5, Binaries: 3})
	srv := NewServer(env, Config{}, site)
	failed := 0
	env.Go("c", func(p *netsim.Proc) {
		for _, o := range site.Objects() {
			resp := srv.Serve(p, "t", Request{Method: "GET", URL: o.URL})
			if resp.Err != nil {
				failed++
			}
		}
	})
	env.Run(0)
	if failed != 0 {
		t.Errorf("%d objects failed to serve", failed)
	}
	if srv.Served() != uint64(site.Len()) {
		t.Errorf("Served = %d, want %d", srv.Served(), site.Len())
	}
}

func TestConfigAccessors(t *testing.T) {
	env := netsim.NewEnv(1)
	srv := NewServer(env, Config{Name: "acc"}, smallSite(t))
	if srv.Config().Name != "acc" {
		t.Error("Config accessor")
	}
	if srv.Site() == nil || srv.AccessLink() == nil {
		t.Error("nil subsystem accessor")
	}
	if BackendFastCGI.String() != "fastcgi" || BackendMongrel.String() != "mongrel" {
		t.Error("backend strings")
	}
}
