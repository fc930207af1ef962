package core

import (
	"fmt"
	"math"
	"time"

	"mfc/internal/netsim"
	"mfc/internal/websim"
)

// SimPlatform binds the coordinator to the discrete-event simulator: the
// coordinator runs as a simulated process at UW-Madison, the clients are
// simulated PlanetLab nodes, and the target is a websim.Server.
type SimPlatform struct {
	env     *netsim.Env
	server  *websim.Server
	clients []*SimClient
	proc    *netsim.Proc // coordinator's process; set by Bind

	// CommandLoss and PollLoss are UDP loss probabilities for control
	// messages (the paper's control protocol has no retransmit).
	CommandLoss float64
	PollLoss    float64
}

// SimClientSpec describes one simulated wide-area client.
type SimClientSpec struct {
	ID        string
	TargetRTT time.Duration // propagation RTT to the target
	CtrlRTT   time.Duration // RTT to the coordinator
	Bandwidth float64       // client access bandwidth, bytes/sec
	Jitter    float64       // relative per-measurement RTT jitter (e.g. 0.05)
	// Middle, when non-nil, is a shared bottleneck link several network
	// hops from the target that this client's responses also traverse
	// (§2.2.3's confound: "the paths between the target and many of the
	// MFC clients may have bottleneck links which lie several network hops
	// away"). Used by the quantile ablation.
	Middle *netsim.Link
}

// PlanetLabSpecs draws n client specs from distributions resembling the
// PlanetLab testbed: target RTTs tens to a couple hundred ms, decent
// academic-network bandwidth.
func PlanetLabSpecs(env *netsim.Env, n int) []SimClientSpec {
	specs := make([]SimClientSpec, n)
	rng := env.Rand()
	for i := range specs {
		// Log-ish RTT spread: 20..240 ms.
		rtt := time.Duration(20+rng.ExpFloat64()*55) * time.Millisecond
		if rtt > 240*time.Millisecond {
			rtt = 240 * time.Millisecond
		}
		ctrl := time.Duration(15+rng.ExpFloat64()*45) * time.Millisecond
		if ctrl > 200*time.Millisecond {
			ctrl = 200 * time.Millisecond
		}
		specs[i] = SimClientSpec{
			ID:        fmt.Sprintf("pl%03d", i),
			TargetRTT: rtt,
			CtrlRTT:   ctrl,
			Bandwidth: 2e6 + rng.Float64()*10e6, // 2..12 MB/s
			Jitter:    0.02 + rng.Float64()*0.06,
		}
	}
	return specs
}

// LANSpecs models the §3 lab setting: clients on the same LAN as the
// target (sub-millisecond RTT, fast links).
func LANSpecs(env *netsim.Env, n int) []SimClientSpec {
	specs := make([]SimClientSpec, n)
	rng := env.Rand()
	for i := range specs {
		specs[i] = SimClientSpec{
			ID:        fmt.Sprintf("lan%03d", i),
			TargetRTT: time.Duration(200+rng.Intn(400)) * time.Microsecond,
			CtrlRTT:   time.Duration(200+rng.Intn(300)) * time.Microsecond,
			Bandwidth: 100e6,
			Jitter:    0.05,
		}
	}
	return specs
}

// NewSimPlatform assembles the platform. Bind must be called from within
// the coordinator's simulated process before running an experiment (the
// RunSim* helpers in package mfc handle this).
func NewSimPlatform(env *netsim.Env, server *websim.Server, specs []SimClientSpec) *SimPlatform {
	p := &SimPlatform{env: env, server: server}
	for _, spec := range specs {
		p.clients = append(p.clients, newSimClient(env, server, spec))
	}
	return p
}

// Bind attaches the coordinator's process, giving the platform its clock.
func (p *SimPlatform) Bind(proc *netsim.Proc) { p.proc = proc }

// Clock implements Platform.
func (p *SimPlatform) Clock() Clock { return simClock{p} }

type simClock struct{ p *SimPlatform }

func (c simClock) Now() time.Duration    { return c.p.env.Now() }
func (c simClock) Sleep(d time.Duration) { c.p.proc.Sleep(d) }

// ActiveClients implements Platform: every client answers the liveness
// probe (probe cost: one control RTT each, sequentially — cheap in virtual
// time and faithful to Figure 2's registration step).
func (p *SimPlatform) ActiveClients() ([]Client, error) {
	out := make([]Client, len(p.clients))
	for i, cl := range p.clients {
		out[i] = cl
		cl.platform = p
	}
	return out, nil
}

// SimClient is one simulated PlanetLab node. Everything it does in
// simulated time — baseline fetches, epoch bursts, MFC-mr fan-out — runs as
// stackless netsim tasks: no goroutine per request, no goroutine handoff
// per block. Only the coordinator waiting on it is a goroutine process.
type SimClient struct {
	env      *netsim.Env
	server   *websim.Server
	spec     SimClientSpec
	platform *SimPlatform

	base    Baseline // most recent MeasureTarget outcome
	results map[int][]Sample

	// process labels, built once
	baselineName, burstName, mrName string
	// recycled task state
	freeReqs   []*simRequest
	freeBursts []*burst
}

func newSimClient(env *netsim.Env, server *websim.Server, spec SimClientSpec) *SimClient {
	return &SimClient{
		env: env, server: server, spec: spec, results: make(map[int][]Sample),
		baselineName: spec.ID + "/baseline", burstName: spec.ID + "/epoch", mrName: spec.ID + "/mr",
	}
}

// ID implements Client.
func (c *SimClient) ID() string { return c.spec.ID }

// rtt draws one RTT observation around the base value.
func (c *SimClient) rtt(base time.Duration) time.Duration {
	j := 1 + c.spec.Jitter*math.Abs(c.env.Rand().NormFloat64())
	return time.Duration(float64(base) * j)
}

// ControlRTT implements Client: the coordinator pings the client. The
// coordinator's process pays the round trip in virtual time.
func (c *SimClient) ControlRTT() (time.Duration, error) {
	d := c.rtt(c.spec.CtrlRTT)
	if c.platform != nil && c.platform.proc != nil {
		c.platform.proc.Sleep(d)
	}
	return d, nil
}

// MeasureTarget implements Client: the client pings the target and fetches
// each request once, sequentially, while the coordinator waits.
func (c *SimClient) MeasureTarget(reqs []Request) (Baseline, error) {
	bl := Baseline{BaseTimes: make(map[string]time.Duration, len(reqs))}
	bl.TargetRTT = c.rtt(c.spec.TargetRTT)

	b := &baseline{c: c, reqs: reqs, times: bl.BaseTimes, done: c.env.NewEvent()}
	c.env.Spawn(c.baselineName, b)
	// The coordinator waits for this client's sequential measurements.
	c.platform.proc.Wait(b.done)
	c.env.FreeEvent(b.done) // triggered and waited; ours alone
	if b.failed != nil {
		return Baseline{}, b.failed
	}
	c.base = bl
	return bl, nil
}

// baseline is MeasureTarget's process: the requests one after another.
type baseline struct {
	c        *SimClient
	reqs     []Request
	next     int
	req      simRequest
	inFlight bool // req is mid-request
	times    map[string]time.Duration
	failed   error
	done     *netsim.Event
}

// Step implements netsim.Task.
func (b *baseline) Step(p *netsim.Proc) bool {
	for {
		if !b.inFlight {
			if b.next == len(b.reqs) {
				break
			}
			b.req = simRequest{c: b.c, rq: b.reqs[b.next], timeout: 10 * time.Second}
			b.next++
			b.inFlight = true
		}
		if b.req.step(p) {
			return true
		}
		b.inFlight = false
		s := b.req.sample
		if s.Err != "" {
			b.failed = fmt.Errorf("core: baseline for %s failed: %s", s.URL, s.Err)
			break
		}
		b.times[s.URL] = s.Resp
	}
	b.done.Trigger()
	return false
}

// Fire implements Client. The command travels half a control RTT (with
// jitter and optional loss); the client then sleeps until its locally
// computed fire instant and issues the burst.
func (c *SimClient) Fire(epoch int, arriveAt time.Duration, reqs []Request, timeout time.Duration) {
	if c.platform.CommandLoss > 0 && c.env.Rand().Float64() < c.platform.CommandLoss {
		return // command lost; no retransmit (§2.3)
	}
	cmdDelay := c.rtt(c.spec.CtrlRTT) / 2
	var b *burst
	if n := len(c.freeBursts); n > 0 {
		b = c.freeBursts[n-1]
		c.freeBursts = c.freeBursts[:n-1]
	} else {
		b = &burst{c: c}
	}
	b.epoch, b.arriveAt, b.reqs, b.timeout = epoch, arriveAt, reqs, timeout
	b.estRTT = c.base.TargetRTT
	c.env.SpawnAfter(c.burstName, cmdDelay, b)
}

// burst is one client's share of an epoch: wait for the fire instant, then
// issue the request — or, for MFC-mr, the parallel connections.
type burst struct {
	c        *SimClient
	epoch    int
	arriveAt time.Duration
	estRTT   time.Duration // the target RTT estimate when the command was sent
	reqs     []Request
	timeout  time.Duration

	state     burstState
	single    simRequest    // the one request of a standard burst
	doneAll   *netsim.Event // MFC-mr: triggered by the last connection
	remaining int           // MFC-mr: connections still in flight
}

type burstState uint8

const (
	burstCommanded burstState = iota // the command has arrived
	burstFire                        // the fire instant has come
	burstSingle                      // stepping the one request
	burstJoin                        // MFC-mr: every connection has finished
)

// Step implements netsim.Task.
func (b *burst) Step(p *netsim.Proc) bool {
	c := b.c
	for {
		switch b.state {
		case burstCommanded:
			// Client-side scheduling: fire so the request arrives at arriveAt,
			// assuming the target RTT estimate still holds (§2.2.4).
			b.state = burstFire
			fireAt := b.arriveAt - b.estRTT*3/2
			if wait := fireAt - p.Now(); wait > 0 {
				return p.BeginSleep(wait)
			}

		case burstFire:
			if len(b.reqs) == 1 {
				b.single = simRequest{c: c, epoch: b.epoch, rq: b.reqs[0], timeout: b.timeout}
				b.state = burstSingle
				continue
			}
			// MFC-mr: parallel connections. Opening m sockets back-to-back is
			// not instantaneous on a real client — connection setup, SYN
			// pacing and kernel scheduling stagger them by tens of
			// milliseconds, which is why Table 2's arrival spreads are looser
			// than the single-connection Figure 3.
			b.doneAll = c.env.NewEvent()
			b.remaining = len(b.reqs)
			for i, rq := range b.reqs {
				setup := time.Duration(0)
				if i > 0 {
					setup = time.Duration(c.env.Rand().ExpFloat64() * 40 * float64(time.Millisecond))
					if setup > 2*time.Second {
						setup = 2 * time.Second
					}
				}
				c.env.SpawnAfter(c.mrName, setup, c.newConnection(b, rq))
			}
			b.state = burstJoin
			if p.BeginWait(b.doneAll) {
				return true
			}

		case burstSingle:
			if b.single.step(p) {
				return true
			}
			c.results[b.epoch] = append(c.results[b.epoch], b.single.sample)
			return b.finish()

		case burstJoin:
			c.env.FreeEvent(b.doneAll) // triggered and waited; ours alone
			return b.finish()
		}
	}
}

// finish recycles the burst; it reports false, for Step to return.
func (b *burst) finish() bool {
	c := b.c
	*b = burst{c: c}
	c.freeBursts = append(c.freeBursts, b)
	return false
}

// simRequest performs one HTTP request in simulated time: 1.5 RTT handshake
// until the request hits the server, server processing/transfer, and half
// an RTT for the tail of the response, enforcing the client-side timeout.
// A baseline or a single-request burst embeds one and steps it as a
// sub-machine; an MFC-mr connection is a pooled one running as a process of
// its own (Step) that reports to its burst.
type simRequest struct {
	c       *SimClient
	epoch   int
	rq      Request
	timeout time.Duration
	burst   *burst // MFC-mr connection: the burst to report to

	state  reqState
	start  time.Duration
	actual time.Duration // this request's RTT draw
	call   *websim.Call
	resp   websim.Response
	sample Sample
}

type reqState uint8

const (
	reqStart    reqState = iota
	reqArrived           // handshake done: the request is at the server
	reqServing           // stepping the server's call
	reqAnswered          // response received (and carried across the middle link)
)

// newConnection prepares one MFC-mr connection of burst b.
func (c *SimClient) newConnection(b *burst, rq Request) *simRequest {
	var r *simRequest
	if n := len(c.freeReqs); n > 0 {
		r = c.freeReqs[n-1]
		c.freeReqs = c.freeReqs[:n-1]
	} else {
		r = new(simRequest)
	}
	*r = simRequest{c: c, epoch: b.epoch, rq: rq, timeout: b.timeout, burst: b}
	return r
}

// Step implements netsim.Task for an MFC-mr connection.
func (r *simRequest) Step(p *netsim.Proc) bool {
	if r.step(p) {
		return true
	}
	c, b := r.c, r.burst
	c.results[r.epoch] = append(c.results[r.epoch], r.sample)
	c.freeReqs = append(c.freeReqs, r)
	b.remaining--
	if b.remaining == 0 {
		b.doneAll.Trigger()
	}
	return false
}

// step advances the request; false means r.sample is final.
func (r *simRequest) step(p *netsim.Proc) (suspended bool) {
	c := r.c
	for {
		switch r.state {
		case reqStart:
			r.start = p.Now()
			r.actual = c.rtt(c.spec.TargetRTT)
			r.state = reqArrived
			return p.BeginSleep(r.actual * 3 / 2)

		case reqArrived:
			r.sample.ArriveAt = p.Now()
			tag := "mfc"
			if r.epoch == 0 {
				tag = "baseline"
			}
			deadline := r.start + r.timeout
			r.call = c.server.Start(tag, websim.Request{
				Method:    r.rq.Method,
				URL:       r.rq.URL,
				ClientBW:  c.spec.Bandwidth,
				ClientRTT: r.actual,
				Deadline:  deadline - r.actual/2, // leave room for the return path
			})
			r.state = reqServing

		case reqServing:
			if r.call.Step(p) {
				return true
			}
			resp := r.call.Finish()
			r.call, r.resp = nil, resp
			s := &r.sample
			s.Client = c.spec.ID
			s.URL = r.rq.URL
			s.Status = resp.Status
			s.Bytes = resp.Bytes
			s.Base = c.base.BaseTimes[r.rq.URL]
			r.state = reqAnswered
			// Shared middle bottleneck: the response also crosses it (serialized
			// after the access link — a conservative approximation that preserves
			// the confound the 90th-percentile rule defends against).
			if c.spec.Middle != nil && resp.Err == nil && resp.Bytes > 0 {
				return c.spec.Middle.BeginTransfer(p, float64(resp.Bytes), c.spec.Bandwidth)
			}

		case reqAnswered:
			s, resp := &r.sample, r.resp
			total := p.Now() - r.start + r.actual/2
			switch {
			case total > r.timeout || resp.Err == websim.ErrTimeout:
				// Client killed the request at the timeout (Figure 2(b) step 2)
				// or the server gave up at the deadline.
				s.Resp = r.timeout
				s.Err = "ERR"
				s.Status = 0
			case resp.Err != nil:
				s.Resp = total
				s.Err = resp.Err.Error()
			default:
				s.Resp = total
			}
			return false
		}
	}
}

// Collect implements Client.
func (c *SimClient) Collect(epoch int) ([]Sample, bool) {
	if c.platform.PollLoss > 0 && c.env.Rand().Float64() < c.platform.PollLoss {
		return nil, false
	}
	return c.results[epoch], true
}
