package websim

import (
	"fmt"
	"testing"
	"time"

	"mfc/internal/netsim"
)

// crowdOutcome is what one client of a crowd observed.
type crowdOutcome struct {
	resp Response
	at   time.Duration // virtual instant the response completed
}

// runCrowd sends n copies of req at t=0 against a fresh server — each from
// a goroutine process through the blocking Serve, or as a stackless Visit —
// and returns the outcomes in client order plus the server and the run's
// kernel counters.
func runCrowd(t *testing.T, cfg Config, req Request, n int, stackless bool) ([]crowdOutcome, *Server, netsim.Stats) {
	t.Helper()
	env := netsim.NewEnv(3)
	srv := NewServer(env, cfg, smallSite(t))
	out := make([]crowdOutcome, n)
	for i := 0; i < n; i++ {
		i := i
		if stackless {
			env.Spawn("client", srv.NewVisit("test", req, func(_ *Visit, resp Response) {
				out[i] = crowdOutcome{resp, env.Now()}
			}))
		} else {
			env.Go("client", func(p *netsim.Proc) {
				out[i] = crowdOutcome{srv.Serve(p, "test", req), p.Now()}
			})
		}
	}
	env.Run(0)
	return out, srv, env.Stats()
}

// The blocking Serve is an adapter over the one pipeline: from a goroutine
// process and as a stackless visitor a crowd sees the same responses at the
// same virtual instants, on every branch — including the ones that answer
// without ever blocking — and the adapter costs one handoff per call that
// blocks, none per call that does not.
func TestServeAdapterMatchesStacklessCall(t *testing.T) {
	fastcgi := LabConfig(BackendFastCGI)
	cases := []struct {
		name      string
		cfg       Config
		req       Request
		n         int
		neverPark bool // no request of the crowd ever blocks
	}{
		{name: "head-base", cfg: Config{}, req: Request{Method: "HEAD", URL: "/index.html"}, n: 20},
		{name: "static-disk-then-cache", cfg: Config{}, req: Request{Method: "GET", URL: "/big.bin", ClientRTT: 40 * time.Millisecond, ClientBW: 1e6}, n: 8},
		{name: "query-pool", cfg: QTNPConfig(), req: Request{Method: "GET", URL: "/q?x=1"}, n: 20},
		{name: "fastcgi-deadline", cfg: fastcgi, req: Request{Method: "GET", URL: "/q?x=1", Deadline: 3 * time.Second}, n: 150},
		{name: "backlog-hold", cfg: Config{Workers: 2, Backlog: 3, WorkerHold: 50 * time.Millisecond}, req: Request{Method: "GET", URL: "/index.html", Deadline: 120 * time.Millisecond}, n: 12},
		{name: "shaped", cfg: Config{RateLimit: RateLimit{Rate: 100, Burst: 2}}, req: Request{Method: "HEAD", URL: "/index.html", Deadline: 60 * time.Millisecond}, n: 10},
		{name: "lossy-edge", cfg: Config{FrontCache: FrontCache{HitRatio: 0.5}, PathLoss: 0.05}, req: Request{Method: "GET", URL: "/big.bin", ClientRTT: 30 * time.Millisecond}, n: 16},
		{name: "synthetic", cfg: ValidationConfig(LinearModel{Slope: time.Millisecond}), req: Request{Method: "GET", URL: "/index.html"}, n: 10},
		{name: "404", cfg: Config{}, req: Request{Method: "GET", URL: "/nope"}, n: 3, neverPark: true},
		{name: "429", cfg: Config{RateLimit: RateLimit{Rate: 1, Burst: 1, Reject: true}}, req: Request{Method: "GET", URL: "/index.html"}, n: 4},
		{name: "junk-200", cfg: Config{RateLimit: RateLimit{Rate: 1, Burst: 1, Junk: true}}, req: Request{Method: "GET", URL: "/index.html"}, n: 4},
		{name: "503", cfg: Config{Workers: 1, Backlog: 1}, req: Request{Method: "HEAD", URL: "/index.html"}, n: 6},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			blocking, bsrv, bstats := runCrowd(t, c.cfg, c.req, c.n, false)
			stackless, ssrv, sstats := runCrowd(t, c.cfg, c.req, c.n, true)
			parked := uint64(0)
			for i := range blocking {
				if blocking[i] != stackless[i] {
					t.Errorf("client %d: blocking %+v, stackless %+v", i, blocking[i], stackless[i])
				}
				if blocking[i].resp.ServerTime > 0 {
					parked++
				}
			}
			if got, want := fmt.Sprint(counters(bsrv)), fmt.Sprint(counters(ssrv)); got != want {
				t.Errorf("server counters: blocking %s, stackless %s", got, want)
			}
			if sstats.Handoffs != 0 {
				t.Errorf("stackless crowd performed %d goroutine handoffs", sstats.Handoffs)
			}
			// One handoff starts each client goroutine; a Serve that blocks
			// adds exactly one more, however many stages it waited in.
			if want := uint64(c.n) + parked; bstats.Handoffs != want {
				t.Errorf("blocking crowd: %d handoffs, want %d clients + %d parked calls", bstats.Handoffs, c.n, parked)
			}
			if c.neverPark && parked != 0 {
				t.Errorf("%d calls blocked on a branch that must answer at once", parked)
			}
		})
	}
}

func counters(s *Server) []uint64 {
	return []uint64{s.Served(), s.Refused(), s.TimedOut(), s.RateLimited(), s.JunkServed(), s.EdgeHits()}
}

// Every request the server gives up on at its deadline is counted exactly
// once, wherever in the pipeline it ran out of time. The FastCGI lab server
// under a crowd that exhausts RAM times requests out while they burn fork
// and query CPU — stages that used to return ErrTimeout uncounted — and a
// timed-out request must give back everything it held.
func TestTimedOutCountsEveryDeadlineExactlyOnce(t *testing.T) {
	for _, n := range []int{40, 60} { // 40 fit in RAM and finish; 60 thrash past the deadline
		req := Request{Method: "GET", URL: "/q?x=1", Deadline: 10 * time.Second}
		out, srv, _ := runCrowd(t, LabConfig(BackendFastCGI), req, n, true)
		var timeouts, served uint64
		for _, o := range out {
			switch {
			case o.resp.Err == ErrTimeout:
				timeouts++
			case o.resp.Err == nil:
				served++
			}
		}
		if (n == 60) != (timeouts > 0) || timeouts+served != uint64(n) {
			t.Fatalf("crowd of %d: %d timeouts, %d served; want the small crowd served and the large one timed out", n, timeouts, served)
		}
		if srv.TimedOut() != timeouts || srv.Served() != served {
			t.Errorf("crowd of %d: TimedOut() = %d for %d ErrTimeout responses, Served() = %d for %d",
				n, srv.TimedOut(), timeouts, srv.Served(), served)
		}
		if srv.pending != 0 || srv.resident != srv.Config().BaseMemBytes || srv.dbPool.InUse() != 0 {
			t.Errorf("crowd of %d left state behind: pending %d, resident %d, db in use %d",
				n, srv.pending, srv.resident, srv.dbPool.InUse())
		}
	}
}
