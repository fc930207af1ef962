package websim

import (
	"testing"
	"time"

	"mfc/internal/content"
	"mfc/internal/netsim"
)

func smallSite(t *testing.T) *content.Site {
	t.Helper()
	site, err := content.NewSite("t", "/index.html", []content.Object{
		{URL: "/index.html", Kind: content.KindText, Size: 2048},
		{URL: "/big.bin", Kind: content.KindBinary, Size: 1_000_000},
		{URL: "/q?x=1", Kind: content.KindQuery, Size: 500, Dynamic: true},
		{URL: "/q?x=2", Kind: content.KindQuery, Size: 500, Dynamic: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return site
}

// serveOne runs a single request through a server and returns the response.
func serveOne(t *testing.T, cfg Config, req Request) (Response, *Server) {
	t.Helper()
	env := netsim.NewEnv(1)
	srv := NewServer(env, cfg, smallSite(t))
	var resp Response
	env.Go("client", func(p *netsim.Proc) {
		resp = srv.Serve(p, "test", req)
	})
	env.Run(0)
	return resp, srv
}

func TestServeHEADBasePage(t *testing.T) {
	resp, srv := serveOne(t, Config{}, Request{Method: "HEAD", URL: "/index.html"})
	if resp.Err != nil || resp.Status != 200 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Bytes != 0 {
		t.Errorf("HEAD returned body bytes: %d", resp.Bytes)
	}
	if srv.Served() != 1 {
		t.Errorf("Served = %d", srv.Served())
	}
}

func TestServe404(t *testing.T) {
	resp, _ := serveOne(t, Config{}, Request{Method: "GET", URL: "/nope"})
	if resp.Status != 404 || resp.Err != ErrNotFound {
		t.Errorf("resp = %+v", resp)
	}
}

func TestServeStaticPaysDiskOnceThenCache(t *testing.T) {
	env := netsim.NewEnv(1)
	cfg := Config{DiskSeek: 10 * time.Millisecond}
	srv := NewServer(env, cfg, smallSite(t))
	var first, second time.Duration
	env.Go("client", func(p *netsim.Proc) {
		t0 := p.Now()
		srv.Serve(p, "t", Request{Method: "GET", URL: "/big.bin"})
		first = p.Now() - t0
		t0 = p.Now()
		srv.Serve(p, "t", Request{Method: "GET", URL: "/big.bin"})
		second = p.Now() - t0
	})
	env.Run(0)
	// The second request must skip the 10ms seek (cache hit).
	if second >= first {
		t.Errorf("cached request (%v) not faster than cold (%v)", second, first)
	}
	if first-second < 8*time.Millisecond {
		t.Errorf("cache saved only %v; expected ~seek+transfer", first-second)
	}
}

func TestBaseExtraCPUAppliesOnlyToBasePage(t *testing.T) {
	cfg := Config{ParseCPU: time.Millisecond, BaseExtraCPU: 50 * time.Millisecond}
	base, _ := serveOne(t, cfg, Request{Method: "HEAD", URL: "/index.html"})
	other, _ := serveOne(t, cfg, Request{Method: "HEAD", URL: "/big.bin"})
	if base.ServerTime-other.ServerTime < 45*time.Millisecond {
		t.Errorf("base=%v other=%v: BaseExtraCPU not applied to the base page only",
			base.ServerTime, other.ServerTime)
	}
}

func TestWorkerPoolRefusesBeyondBacklog(t *testing.T) {
	env := netsim.NewEnv(1)
	cfg := Config{Workers: 1, Backlog: 1, ParseCPU: 50 * time.Millisecond}
	srv := NewServer(env, cfg, smallSite(t))
	refused := 0
	for i := 0; i < 4; i++ {
		env.Go("c", func(p *netsim.Proc) {
			resp := srv.Serve(p, "t", Request{Method: "HEAD", URL: "/index.html"})
			if resp.Err == ErrRefused {
				refused++
			}
		})
	}
	env.Run(0)
	// 1 in service, 1 queued, 2 refused.
	if refused != 2 {
		t.Errorf("refused = %d, want 2", refused)
	}
	if srv.Refused() != 2 {
		t.Errorf("Refused counter = %d", srv.Refused())
	}
}

func TestDeadlineTimesOutSlowRequest(t *testing.T) {
	env := netsim.NewEnv(1)
	cfg := Config{QueryBackendTime: 5 * time.Second, DBConns: 1}
	srv := NewServer(env, cfg, smallSite(t))
	var resp Response
	env.Go("c", func(p *netsim.Proc) {
		resp = srv.Serve(p, "t", Request{
			Method: "GET", URL: "/q?x=1", Deadline: 100 * time.Millisecond,
		})
	})
	env.Run(0)
	// The backend sleep itself is not preemptible mid-sleep, but the
	// request must be reported as timed out overall or complete long after
	// the deadline; the pipeline checks deadlines at each step.
	if resp.Err == nil && resp.ServerTime <= 100*time.Millisecond {
		t.Errorf("slow query finished within deadline: %+v", resp)
	}
}

func TestFastCGIMemoryGrowsWithConcurrency(t *testing.T) {
	env := netsim.NewEnv(1)
	cfg := Config{
		Backend:          BackendFastCGI,
		PerRequestMem:    30 << 20,
		BaseMemBytes:     100 << 20,
		QueryBackendTime: 50 * time.Millisecond,
		DBConns:          64,
	}
	srv := NewServer(env, cfg, smallSite(t))
	for i := 0; i < 10; i++ {
		env.Go("c", func(p *netsim.Proc) {
			srv.Serve(p, "t", Request{Method: "GET", URL: "/q?x=1"})
		})
	}
	env.Run(0)
	want := int64(100<<20 + 10*(30<<20))
	if srv.PeakResident() != want {
		t.Errorf("PeakResident = %d, want %d", srv.PeakResident(), want)
	}
	// After completion memory returns to base.
	if srv.resident != 100<<20 {
		t.Errorf("Resident = %d after drain, want base", srv.resident)
	}
}

func TestMongrelMemoryFlat(t *testing.T) {
	env := netsim.NewEnv(1)
	cfg := Config{Backend: BackendMongrel, BaseMemBytes: 100 << 20}
	srv := NewServer(env, cfg, smallSite(t))
	for i := 0; i < 10; i++ {
		env.Go("c", func(p *netsim.Proc) {
			srv.Serve(p, "t", Request{Method: "GET", URL: "/q?x=1"})
		})
	}
	env.Run(0)
	if srv.PeakResident() != 100<<20 {
		t.Errorf("PeakResident = %d, want base only", srv.PeakResident())
	}
}

func TestThrashMultiplier(t *testing.T) {
	env := netsim.NewEnv(1)
	srv := NewServer(env, Config{RAMBytes: 1 << 30, SwapPenalty: 10}, smallSite(t))
	if m := srv.thrash(); m != 1 {
		t.Errorf("thrash under RAM = %v, want 1", m)
	}
	srv.resident = 1<<30 + 1<<29 // 1.5 GB: 50% over
	if m := srv.thrash(); m < 5.9 || m > 6.1 {
		t.Errorf("thrash at 50%% over = %v, want ~6", m)
	}
}

func TestWorkerHoldDelaysNextBatchNotOwnResponse(t *testing.T) {
	env := netsim.NewEnv(1)
	cfg := Config{Workers: 1, Backlog: 8, WorkerHold: 200 * time.Millisecond, ParseCPU: time.Millisecond}
	srv := NewServer(env, cfg, smallSite(t))
	var firstDone, secondDone time.Duration
	env.Go("a", func(p *netsim.Proc) {
		srv.Serve(p, "t", Request{Method: "HEAD", URL: "/index.html"})
		firstDone = p.Now()
	})
	env.Go("b", func(p *netsim.Proc) {
		srv.Serve(p, "t", Request{Method: "HEAD", URL: "/index.html"})
		secondDone = p.Now()
	})
	env.Run(0)
	if firstDone > 50*time.Millisecond {
		t.Errorf("first response delayed by its own hold: %v", firstDone)
	}
	if secondDone < 200*time.Millisecond {
		t.Errorf("second response did not wait for the lingering worker: %v", secondDone)
	}
}

func TestSlowStartPenalty(t *testing.T) {
	if p := slowStartPenalty(1000, 100*time.Millisecond); p != 0 {
		t.Errorf("small transfer penalized: %v", p)
	}
	if p := slowStartPenalty(1<<20, 0); p != 0 {
		t.Errorf("zero RTT penalized: %v", p)
	}
	p1 := slowStartPenalty(100*1024, 50*time.Millisecond)
	p2 := slowStartPenalty(2<<20, 50*time.Millisecond)
	if p1 <= 0 || p2 <= p1 {
		t.Errorf("penalty not growing with size: %v then %v", p1, p2)
	}
}

func TestReplicasScaleCapacity(t *testing.T) {
	run := func(replicas int) time.Duration {
		env := netsim.NewEnv(1)
		cfg := Config{ParseCPU: 10 * time.Millisecond, Cores: 1, Replicas: replicas}
		srv := NewServer(env, cfg, smallSite(t))
		var last time.Duration
		for i := 0; i < 8; i++ {
			env.Go("c", func(p *netsim.Proc) {
				srv.Serve(p, "t", Request{Method: "HEAD", URL: "/big.bin"})
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		env.Run(0)
		return last
	}
	if one, four := run(1), run(4); four >= one {
		t.Errorf("4 replicas (%v) not faster than 1 (%v)", four, one)
	}
}

func TestAccessLogTags(t *testing.T) {
	env := netsim.NewEnv(1)
	srv := NewServer(env, Config{}, smallSite(t))
	srv.EnableAccessLog()
	env.Go("c", func(p *netsim.Proc) {
		srv.Serve(p, "alpha", Request{Method: "HEAD", URL: "/index.html"})
		srv.Serve(p, "beta", Request{Method: "GET", URL: "/big.bin"})
	})
	env.Run(0)
	log := srv.AccessLog()
	if len(log) != 2 || log[0].Tag != "alpha" || log[1].Tag != "beta" {
		t.Errorf("AccessLog = %+v", log)
	}
}
