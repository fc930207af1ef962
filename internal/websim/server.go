// Package websim models a web-server installation at the sub-system
// granularity the paper reasons about: access-link bandwidth, a bounded
// worker pool (threads), CPU (processor sharing), a serialized disk, a
// back-end database with a connection pool and query cache, and a
// FastCGI-style per-request memory model with swap thrashing.
//
// The model is deliberately a fluid/queueing abstraction rather than a
// packet simulator: the MFC technique only observes end-to-end response
// times, and the paper's findings are about which sub-system saturates
// first as the synchronized crowd grows. Each sub-system here exposes the
// same saturation mechanism the paper attributes to it:
//
//   - Large Object stage  -> shared outbound link: per-flow fair share
//     shrinks as 1/N (Figure 5).
//   - Small Query stage   -> DB pool serialization + query CPU; with the
//     FastCGI fork-memory model, resident memory grows linearly in the
//     crowd and service times blow up once RAM is exhausted (Figure 6).
//   - Base stage          -> worker pool and parse CPU.
package websim

import (
	"errors"
	"math"
	"time"

	"mfc/internal/content"
	"mfc/internal/netsim"
)

// Backend selects the dynamic-request software interface (§3.2).
type Backend int

const (
	// BackendMongrel models a lightweight threaded module: constant memory,
	// requests queue on the DB pool only.
	BackendMongrel Backend = iota
	// BackendFastCGI models the fork-per-request interface the paper found
	// pathological: every in-flight dynamic request holds a copy of the
	// parent process image, so resident memory grows with concurrency and
	// the server thrashes once RAM is exhausted.
	BackendFastCGI
)

func (b Backend) String() string {
	if b == BackendFastCGI {
		return "fastcgi"
	}
	return "mongrel"
}

// fileCacheBytes is each replica's static-object cache capacity and
// headerBytes the HTTP response header size.
const fileCacheBytes, headerBytes = 64 << 20, 300

// Config describes one server installation. NewServer applies defaults for
// zero fields (documented per field).
type Config struct {
	Name string

	// AccessBandwidth is the outbound link capacity in bytes/sec
	// (default 12.5 MB/s ~ 100 Mbit).
	AccessBandwidth float64

	// Workers is the maximum number of concurrently handled requests per
	// replica, e.g. Apache worker MPM MaxClients (default 256).
	Workers int
	// Backlog is the accept queue beyond busy workers (default 128).
	// A request arriving with all workers busy and the backlog full is
	// refused (client sees an error).
	Backlog int

	// Cores is the CPU capacity per replica (default 2).
	Cores float64
	// ParseCPU is the CPU demand of basic HTTP handling per request
	// (default 1ms). The Base stage exercises exactly this.
	ParseCPU time.Duration
	// BaseExtraCPU is additional CPU demand for requests of the base page
	// only (authentication, personalization, redirects). It lets a model
	// reproduce sites whose HEAD-of-base-page path is heavier than generic
	// request parsing — QTNP's Base stage degraded at only 20-25 requests,
	// to the operators' surprise, while its query path held to 45-55.
	BaseExtraCPU time.Duration
	// RenderCPU is the CPU demand for assembling a response (default 200µs).
	RenderCPU time.Duration

	// DiskSeek is the positioning cost per uncached static read
	// (default 6ms); DiskBandwidth is the sequential rate (default 40 MB/s).
	DiskSeek      time.Duration
	DiskBandwidth float64

	// DBConns is the connection-pool size per replica (default 16).
	DBConns int
	// QueryCPU is the CPU demand per uncached query on the web server's own
	// CPU (default 20ms — the paper's 50000-row aggregate executed locally).
	QueryCPU time.Duration
	// QueryBackendTime is wall time per uncached query spent on a separate
	// back-end database machine while holding a pool connection (0 = query
	// runs locally on QueryCPU only). Production sites where "the Small
	// Query involves processing on multiple servers" (QTNP) use this.
	QueryBackendTime time.Duration
	// QueryCacheBytes is the MySQL-style query cache size. There is no
	// default: the zero value disables query caching, and each preset
	// that caches sets its own size.
	QueryCacheBytes int64

	// Backend selects Mongrel vs FastCGI dynamic handling.
	Backend Backend
	// ForkCPU is the CPU cost of forking the FastCGI process per dynamic
	// request (default 4ms; ignored for Mongrel). Together with
	// PerRequestMem it reproduces footnote 1: FastCGI forks a new process
	// per request and each fork inherits the parent's memory image.
	ForkCPU time.Duration
	// RAMBytes is physical memory per replica (default 1 GB).
	RAMBytes int64
	// BaseMemBytes is the resident set with no load (default 200 MB).
	BaseMemBytes int64
	// PerRequestMem is the extra resident memory per in-flight dynamic
	// request under FastCGI (default 20 MB, the forked parent image).
	PerRequestMem int64
	// SwapPenalty scales the thrashing slowdown: CPU and disk work is
	// multiplied by 1 + SwapPenalty * overcommit, where overcommit is the
	// resident-over-RAM fraction (default 8).
	SwapPenalty float64

	// WorkerHold is extra wall time a worker slot stays occupied per
	// request beyond CPU and I/O (connection handling, write drain,
	// lingering close). It does not delay the response of the request that
	// holds it, but it starves later arrivals once Workers are exhausted —
	// the software-configuration artifact behind Univ-2's uniform stop at
	// crowd sizes 110–150 (§4.2).
	WorkerHold time.Duration

	// Replicas models a load-balanced farm of identical servers behind one
	// IP (QTP has 16). Capacities above are per replica.
	Replicas int

	// RateLimit puts a token-bucket throttling tier (WAF / reverse proxy)
	// in front of the worker pool; the zero value is off.
	RateLimit RateLimit
	// FrontCache puts a CDN/cache tier in front of the origin; the zero
	// value is off.
	FrontCache FrontCache

	// PathLoss is the sustained packet-loss fraction on the server's
	// network path, clamped to [0, 0.99]. It has two halves, both applied
	// by NewServer: the access link's fluid goodput scales by
	// (1-PathLoss), and each response of n packets suffers one lossRTO
	// retransmission stall with probability 1-(1-PathLoss)^min(n,64) (at
	// least one loss event within the first window-limited rounds). 0
	// disables (and draws nothing from the RNG).
	PathLoss float64

	// Synthetic, when non-nil, replaces the entire resource pipeline with a
	// synthetic response-time model (used by the §3.1 validation server).
	Synthetic SyntheticModel
}

// RateLimit is a server-side token-bucket rate limiter (WAF /
// reverse-proxy throttling tier) admitting Rate requests per second across
// the whole installation. Over-limit requests are delayed until a token
// frees by default (tarpit-style shaping — the degradation is visible in
// response times).
type RateLimit struct {
	// Rate is admitted requests/sec; 0 disables the tier.
	Rate float64 `json:"rate"`
	// Burst is the bucket depth (default: Rate, min 1).
	Burst int `json:"burst,omitempty"`
	// Reject refuses over-limit requests immediately with 429 (fail-fast
	// WAFs — the request returns quickly, which hides the throttling from
	// purely latency-based detection; see EXPERIMENTS.md).
	Reject bool `json:"reject,omitempty"`
	// Junk selects the evasive over-limit behavior: instead of shaping or
	// refusing, the tier instantly serves a tiny bogus 200 (a cached
	// "everything is fine" splash page) without touching workers, CPU,
	// disk or the access link. The fast 200 is invisible both to
	// latency-quantile detection (it is quick) and to the error-class
	// floor (status 200 is not an error class). Takes precedence over
	// Reject; the scenario layer forbids setting both.
	Junk bool `json:"junk,omitempty"`
}

// FrontCache is a CDN/cache front tier: a HitRatio fraction of cacheable
// (static, non-base) GET requests is served entirely at the edge, never
// reaching the origin's workers, CPU, disk or access link. The draw uses
// the simulation's deterministic RNG.
type FrontCache struct {
	// HitRatio is the edge-served fraction, in [0, 1]; 0 disables the
	// tier (and draws nothing).
	HitRatio float64 `json:"hit_ratio"`
}

// edgeBandwidth is the front tier's per-response transfer rate in
// bytes/sec.
const edgeBandwidth = 125e6

// lossRTO is the retransmission stall of a lossy path: a conservative
// RTO with timer slack.
const lossRTO = 300 * time.Millisecond

// syntheticSettle is the gathering window of the synthetic server: a
// request waits this long before sampling the pending count, so a
// synchronized crowd is fully assembled and every member observes
// pending ≈ crowd size, matching the §3.1 validation server's behaviour.
// Baselines include the same constant, so normalized response times are
// unaffected.
const syntheticSettle = 50 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "server"
	}
	if c.AccessBandwidth <= 0 {
		c.AccessBandwidth = 12.5e6
	}
	if c.Workers <= 0 {
		c.Workers = 256
	}
	if c.Backlog <= 0 {
		c.Backlog = 128
	}
	if c.Cores <= 0 {
		c.Cores = 2
	}
	if c.ParseCPU <= 0 {
		c.ParseCPU = time.Millisecond
	}
	if c.RenderCPU <= 0 {
		c.RenderCPU = 200 * time.Microsecond
	}
	if c.DiskSeek <= 0 {
		c.DiskSeek = 6 * time.Millisecond
	}
	if c.DiskBandwidth <= 0 {
		c.DiskBandwidth = 40e6
	}
	if c.DBConns <= 0 {
		c.DBConns = 16
	}
	if c.QueryCPU <= 0 {
		c.QueryCPU = 20 * time.Millisecond
	}
	if c.RAMBytes <= 0 {
		c.RAMBytes = 1 << 30
	}
	if c.BaseMemBytes <= 0 {
		c.BaseMemBytes = 200 << 20
	}
	if c.PerRequestMem <= 0 {
		c.PerRequestMem = 20 << 20
	}
	if c.SwapPenalty <= 0 {
		c.SwapPenalty = 8
	}
	if c.ForkCPU <= 0 {
		c.ForkCPU = 4 * time.Millisecond
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if rl := &c.RateLimit; rl.Rate > 0 && rl.Burst <= 0 {
		rl.Burst = max(int(rl.Rate), 1)
	}
	return c
}

// Request errors surfaced to clients.
var (
	ErrRefused     = errors.New("websim: connection refused (backlog full)")
	ErrNotFound    = errors.New("websim: object not found")
	ErrTimeout     = errors.New("websim: request deadline exceeded")
	ErrRateLimited = errors.New("websim: request rejected by rate limiter")
)

// Request is one HTTP request as seen at the server.
type Request struct {
	Method string // "GET" or "HEAD"
	URL    string
	// ClientBW caps the response transfer rate (bytes/sec; 0 = uncapped).
	ClientBW float64
	// ClientRTT is used for the TCP slow-start penalty on large transfers.
	ClientRTT time.Duration
	// Deadline is an absolute simulation time after which the server gives
	// up (zero = none). Clients enforce their own 10s budget; the server
	// deadline prevents zombie work.
	Deadline time.Duration
}

// Response reports the server-side outcome.
type Response struct {
	Status int // 200, 404, 503, or 0 with Err set
	Bytes  int64
	// ServerTime is time from accept to last byte handed to the link.
	ServerTime time.Duration
	Err        error
}

// Server is a simulated installation hosting a content.Site.
type Server struct {
	env  *netsim.Env
	cfg  Config
	site *content.Site

	access  *netsim.Link
	workers *netsim.Resource
	cpu     *netsim.Link // processor sharing: "bytes" are core-seconds
	disk    *netsim.Resource
	dbPool  *netsim.Resource

	fileCache  *lru
	queryCache *lru

	resident     int64 // bytes, FastCGI model
	peakResident int64
	peakWindow   int64 // peak resident since last TakePeakResident

	pending int // concurrent accepted requests (drives SyntheticModel)

	// limVT is the rate limiter's virtual admission clock: the instant at
	// which the next token is spoken for. Arrivals admit at
	// max(now, limVT - burst/rate) and push limVT forward by 1/rate — a
	// deterministic leaky-bucket with burst depth RateLimit.Burst, no RNG.
	limVT time.Duration

	// counters
	served      uint64
	refused     uint64
	timedOut    uint64
	rateLimited uint64
	junkServed  uint64
	edgeHits    uint64
	arrivals    []Arrival
	logging     bool

	free          []*Call // recycled calls
	releaseWorker func()  // workers.Release, bound once for the WorkerHold timer
}

// Arrival is one request-arrival log record (server access log, used by the
// §4 synchronization analyses).
type Arrival struct {
	At     time.Duration
	URL    string
	Method string
	Tag    string // request tag (e.g. "mfc" vs "bg")
}

// NewServer builds a server bound to env hosting site.
func NewServer(env *netsim.Env, cfg Config, site *content.Site) *Server {
	cfg = cfg.withDefaults()
	r := float64(cfg.Replicas)
	s := &Server{
		env:        env,
		cfg:        cfg,
		site:       site,
		access:     env.NewLink(cfg.Name+"/access", cfg.AccessBandwidth*r),
		workers:    env.NewResource(cfg.Name+"/workers", cfg.Workers*cfg.Replicas),
		cpu:        env.NewLink(cfg.Name+"/cpu", cfg.Cores*r),
		disk:       env.NewResource(cfg.Name+"/disk", cfg.Replicas),
		dbPool:     env.NewResource(cfg.Name+"/db", cfg.DBConns*cfg.Replicas),
		fileCache:  newLRU(fileCacheBytes * int64(cfg.Replicas)),
		queryCache: newLRU(cfg.QueryCacheBytes * int64(cfg.Replicas)),
		resident:   cfg.BaseMemBytes,
	}
	s.peakResident = s.resident
	s.releaseWorker = s.workers.Release
	if cfg.PathLoss > 0 {
		s.SetPathLoss(cfg.PathLoss)
	}
	return s
}

// Config returns the (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Site returns the hosted content.
func (s *Server) Site() *content.Site { return s.site }

// EnableAccessLog records request arrivals (Table 2 style analysis).
func (s *Server) EnableAccessLog() { s.logging = true }

// AccessLog returns the recorded arrivals.
func (s *Server) AccessLog() []Arrival { return s.arrivals }

// Served, Refused and TimedOut return request counters.
func (s *Server) Served() uint64   { return s.served }
func (s *Server) Refused() uint64  { return s.refused }
func (s *Server) TimedOut() uint64 { return s.timedOut }

// RateLimited returns the count of requests the token-bucket tier
// rejected (RateLimit.Reject mode only; delayed requests are not counted).
func (s *Server) RateLimited() uint64 { return s.rateLimited }

// JunkServed returns the count of over-limit requests the token-bucket
// tier answered with an instant bogus 200 (RateLimit.Junk mode only).
func (s *Server) JunkServed() uint64 { return s.junkServed }

// junkBytes is the body size of a RateLimit.Junk bogus 200: a tiny cached
// splash page, small enough to transfer in negligible time.
const junkBytes = 512

// EdgeHits returns the count of requests served entirely by the CDN/cache
// front tier.
func (s *Server) EdgeHits() uint64 { return s.edgeHits }

// SetPathLoss changes the path's loss fraction mid-run (chaos loss
// bursts), both halves of Config.PathLoss at once: the access link's
// goodput scaling and the per-request retransmission stalls. The access
// link clamps p to [0, 0.99] and is the one place the fraction lives.
func (s *Server) SetPathLoss(p float64) {
	s.access.SetLoss(p)
}

// PathLoss returns the current per-request loss fraction.
func (s *Server) PathLoss() float64 { return s.access.Loss() }

// PeakResident returns the peak resident memory observed (bytes).
func (s *Server) PeakResident() int64 { return s.peakResident }

// TakePeakResident returns the peak resident memory since the previous
// call and resets the window peak (used by the monitor so bursts shorter
// than the sampling interval are still seen, as atop's high-water marks
// would show them).
func (s *Server) TakePeakResident() int64 {
	p := s.peakWindow
	if s.resident > p {
		p = s.resident
	}
	s.peakWindow = s.resident
	return p
}

// AccessLink exposes the outbound link for monitoring.
func (s *Server) AccessLink() *netsim.Link { return s.access }

// thrash returns the current service-time multiplier from memory pressure.
func (s *Server) thrash() float64 {
	ram := s.cfg.RAMBytes * int64(s.cfg.Replicas)
	if s.resident <= ram {
		return 1
	}
	over := float64(s.resident-ram) / float64(ram)
	return 1 + s.cfg.SwapPenalty*over
}

func (s *Server) remaining(deadline time.Duration) (time.Duration, bool) {
	if deadline == 0 {
		return time.Duration(math.MaxInt64 / 4), true
	}
	rem := deadline - s.env.Now()
	if rem <= 0 {
		return 0, false
	}
	return rem, true
}

// Call is one request in flight: the server's request pipeline as a
// run-to-completion state machine (a netsim sub-task). Start hands one
// out; the owner forwards its process's steps to Step until it reports
// false, then collects the Response with Finish. Every blocking point of
// the pipeline — limiter delay, accept queue, CPU bursts, disk, DB pool,
// the access link — is one resume state; nothing in between yields, so a
// request costs no goroutine and no handoff. Calls are pooled per server.
type Call struct {
	s     *Server
	tag   string
	req   Request
	obj   content.Object
	state callState
	start time.Duration // arrival instant
	body  int64         // response body bytes once known

	accepted bool // holds a worker slot and counts in pending
	forked   bool // FastCGI: holds a parent-image copy in resident
	pooled   bool // holds a DB pool connection

	resp Response
}

// callState is where a Call resumes: each value names the block that just
// resolved (or, for the immediate ones, the stage about to run).
type callState uint8

const (
	callArrive    callState = iota // not started: log, lookup, edge tier, limiter
	callEdge                       // edge-tier transfer time elapsed
	callAdmit                      // past the limiter (immediately or after its delay)
	callQueued                     // accept-queue wait resolved
	callAccepted                   // worker slot held
	callSettled                    // synthetic gathering window elapsed
	callParsed                     // parse CPU resolved
	callDiskHeld                   // static: disk arm wait resolved
	callDiskRead                   // static: seek+read elapsed
	callForked                     // dynamic: fork CPU resolved
	callPool                       // dynamic: about to take a DB connection
	callPoolHeld                   // dynamic: DB pool wait resolved
	callCacheHit                   // dynamic: query-cache hit CPU resolved
	callBackend                    // dynamic: about to visit the DB machine
	callQuery                      // dynamic: about to burn query CPU
	callQueried                    // dynamic: query CPU resolved
	callRender                     // about to burn render CPU
	callRendered                   // render CPU resolved
	callTransmit                   // about to transmit body+headers
	callSlowStart                  // slow-start ramp elapsed (or skipped)
	callStalled                    // retransmission stall elapsed (or skipped)
	callSent                       // access-link transfer resolved
)

// Start begins serving req and returns the call to step. Nothing happens —
// no arrival is logged, no state is touched — until the first Step, so a
// call may be started now and spawned for later.
func (s *Server) Start(tag string, req Request) *Call {
	var c *Call
	if n := len(s.free); n > 0 {
		c = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		c = &Call{s: s}
	}
	c.tag, c.req = tag, req
	return c
}

// Finish returns the finished call's response and recycles the call.
func (c *Call) Finish() Response {
	resp := c.resp
	*c = Call{s: c.s}
	c.s.free = append(c.s.free, c)
	return resp
}

// Serve handles one request on behalf of the calling goroutine process and
// blocks until the response is fully transmitted (or failed). Tag labels
// the request in the access log. It is the blocking adapter over the one
// pipeline: the call runs on p via Proc.Do.
func (s *Server) Serve(p *netsim.Proc, tag string, req Request) Response {
	c := s.Start(tag, req)
	p.Do(c)
	return c.Finish()
}

// Step advances the request until it suspends p or completes. ok carries
// the outcome of the block that just resolved; stages that complete
// without suspending overwrite it and fall into the same resume state.
func (c *Call) Step(p *netsim.Proc) (suspended bool) {
	s, req := c.s, &c.req
	ok := p.OK()
	for {
		switch c.state {
		case callArrive:
			c.start = s.env.Now()
			if s.logging {
				s.arrivals = append(s.arrivals, Arrival{At: c.start, URL: req.URL, Method: req.Method, Tag: c.tag})
			}
			obj, found := s.site.Lookup(req.URL)
			if !found {
				// 404s still cost parse CPU, but we keep them cheap and exact.
				return c.done(Response{Status: 404, Err: ErrNotFound})
			}
			c.obj = obj

			// CDN/cache front tier: a hit is served entirely at the edge — the
			// origin's workers, CPU, disk, limiter and access link never see the
			// request. The base page stays origin-served (personalized HTML), so a
			// fronted site's Base stage still measures the origin while its Large
			// Object stage is masked by the cache.
			if hit := s.cfg.FrontCache.HitRatio; hit > 0 && !obj.Dynamic && req.URL != s.site.Base &&
				s.env.Rand().Float64() < hit {
				s.edgeHits++
				if req.Method != "HEAD" {
					c.body = obj.Size
				}
				bw := edgeBandwidth
				if req.ClientBW > 0 && req.ClientBW < bw {
					bw = req.ClientBW
				}
				c.state = callEdge
				return p.BeginSleep(time.Duration(float64(c.body+headerBytes) / bw * float64(time.Second)))
			}

			// WAF / reverse-proxy rate limiter: a deterministic leaky bucket in
			// front of the worker pool. Over-limit requests are either shaped
			// (held until their token instant) or refused with 429.
			c.state = callAdmit
			if rl := &s.cfg.RateLimit; rl.Rate > 0 {
				gap := time.Duration(float64(time.Second) / rl.Rate)
				now := s.env.Now()
				if floor := now - time.Duration(rl.Burst-1)*gap; s.limVT < floor {
					s.limVT = floor
				}
				admitAt := s.limVT
				s.limVT += gap
				if admitAt > now {
					if rl.Junk {
						s.limVT = admitAt // the junked request's token goes back
						s.junkServed++
						return c.done(Response{Status: 200, Bytes: junkBytes})
					}
					if rl.Reject {
						s.limVT = admitAt // the refused request's token goes back
						s.rateLimited++
						return c.done(Response{Status: 429, Err: ErrRateLimited})
					}
					rem, live := s.remaining(req.Deadline)
					if !live || admitAt-now > rem {
						return c.timeout()
					}
					return p.BeginSleep(admitAt - now)
				}
			}

		case callEdge:
			s.served++
			return c.done(Response{Status: 200, Bytes: c.body})

		case callAdmit:
			// Admission: worker slot or bounded backlog.
			c.state = callAccepted
			if !s.workers.TryAcquire() {
				if s.workers.QueueLen() >= s.cfg.Backlog*s.cfg.Replicas {
					s.refused++
					return c.done(Response{Status: 503, Err: ErrRefused})
				}
				rem, live := s.remaining(req.Deadline)
				if !live {
					return c.timeout()
				}
				c.state = callQueued
				if s.workers.BeginAcquireTimeout(p, rem) {
					return true
				}
				ok = true
			}

		case callQueued:
			if !ok {
				return c.timeout()
			}
			c.state = callAccepted

		case callAccepted:
			// From here done releases the slot (after WorkerHold) and the
			// pending count, in the order the pipeline took them.
			c.accepted = true
			s.pending++
			if s.cfg.Synthetic != nil {
				// Gathering window: let the synchronized crowd assemble before
				// sampling the pending count (see syntheticSettle).
				c.state = callSettled
				return p.BeginSleep(syntheticSettle)
			}
			// Parse (plus the base page's heavier handling when applicable).
			parse := s.cfg.ParseCPU
			if req.URL == s.site.Base {
				parse += s.cfg.BaseExtraCPU
			}
			c.state = callParsed
			if suspended, ok = s.burnCPU(p, parse, req.Deadline); suspended {
				return true
			}

		case callSettled:
			// The synthetic model replaces the whole resource pipeline: the
			// configured delay, then only the transfer cost.
			d := s.cfg.Synthetic.Delay(s.pending)
			rem, live := s.remaining(req.Deadline)
			if !live || d > rem {
				return c.timeout()
			}
			if req.Method != "HEAD" {
				c.body = c.obj.Size
			}
			c.state = callTransmit
			return p.BeginSleep(d)

		case callParsed:
			if !ok {
				return c.timeout()
			}
			switch {
			case req.Method == "HEAD":
				c.state = callRender
			case c.obj.Dynamic:
				c.body = c.obj.Size
				c.state = callPool
				// FastCGI: fork — the request holds a parent-image copy for its
				// entire dynamic phase (including pool queueing) and pays the
				// fork CPU.
				if s.cfg.Backend == BackendFastCGI {
					s.resident += s.cfg.PerRequestMem
					if s.resident > s.peakResident {
						s.peakResident = s.resident
					}
					if s.resident > s.peakWindow {
						s.peakWindow = s.resident
					}
					c.forked = true
					c.state = callForked
					if suspended, ok = s.burnCPU(p, s.cfg.ForkCPU, req.Deadline); suspended {
						return true
					}
				}
			default:
				// Static: read the object from cache or disk.
				c.body = c.obj.Size
				c.state = callRender
				if !s.fileCache.get(c.obj.URL) {
					rem, live := s.remaining(req.Deadline)
					if !live {
						return c.timeout()
					}
					c.state = callDiskHeld
					if s.disk.BeginAcquireTimeout(p, rem) {
						return true
					}
					ok = true
				}
			}

		case callDiskHeld:
			if !ok {
				return c.timeout()
			}
			seek := time.Duration(float64(s.cfg.DiskSeek) * s.thrash())
			xfer := time.Duration(float64(c.obj.Size) / s.cfg.DiskBandwidth * s.thrash() * float64(time.Second))
			c.state = callDiskRead
			return p.BeginSleep(seek + xfer)

		case callDiskRead:
			s.disk.Release()
			s.fileCache.put(c.obj.URL, c.obj.Size)
			c.state = callRender

		case callForked:
			if !ok {
				return c.timeout()
			}
			c.state = callPool

		case callPool:
			rem, live := s.remaining(req.Deadline)
			if !live {
				return c.timeout()
			}
			c.state = callPoolHeld
			if s.dbPool.BeginAcquireTimeout(p, rem) {
				return true
			}
			ok = true

		case callPoolHeld:
			if !ok {
				return c.timeout()
			}
			c.pooled = true
			c.state = callBackend
			if s.queryCache.enabled() && s.queryCache.get(req.URL) {
				// Cache hit: negligible CPU (MySQL's query cache returns the
				// stored result without re-executing).
				c.state = callCacheHit
				if suspended, ok = s.burnCPU(p, 200*time.Microsecond, req.Deadline); suspended {
					return true
				}
			}

		case callCacheHit:
			if !ok {
				return c.timeout()
			}
			c.endDynamic()
			c.state = callRender

		case callBackend:
			c.state = callQuery
			if s.cfg.QueryBackendTime > 0 {
				// Executed on the separate DB machine; the pool connection is the
				// contended resource, not this server's CPU.
				return p.BeginSleep(time.Duration(float64(s.cfg.QueryBackendTime) * s.thrash()))
			}

		case callQuery:
			c.state = callQueried
			if suspended, ok = s.burnCPU(p, s.cfg.QueryCPU, req.Deadline); suspended {
				return true
			}

		case callQueried:
			if !ok {
				return c.timeout()
			}
			if s.queryCache.enabled() {
				s.queryCache.put(req.URL, c.obj.Size)
			}
			c.endDynamic()
			c.state = callRender

		case callRender:
			c.state = callRendered
			if suspended, ok = s.burnCPU(p, s.cfg.RenderCPU, req.Deadline); suspended {
				return true
			}

		case callRendered:
			if !ok {
				return c.timeout()
			}
			c.state = callTransmit

		case callTransmit:
			// Push the response through the shared access link, charging the
			// TCP slow-start ramp for transfers that span multiple windows.
			c.state = callSlowStart
			if penalty := slowStartPenalty(c.body+headerBytes, req.ClientRTT); penalty > 0 {
				return p.BeginSleep(penalty)
			}

		case callSlowStart:
			c.state = callStalled
			if loss := s.access.Loss(); loss > 0 {
				// Retransmission stall: a response of n packets suffers one RTO
				// with probability 1-(1-p)^min(n,64) — at least one drop within the
				// window-limited early rounds. Larger responses are likelier to
				// stall, which is why sustained loss hurts the Large Object stage
				// first. No draw happens on a lossless path (determinism guard).
				pkts := float64((c.body + headerBytes + 1459) / 1460)
				if pkts > 64 {
					pkts = 64
				}
				if s.env.Rand().Float64() < 1-math.Pow(1-loss, pkts) {
					return p.BeginSleep(lossRTO)
				}
			}

		case callStalled:
			rem, live := s.remaining(req.Deadline)
			if !live {
				return c.timeout()
			}
			c.state = callSent
			return s.access.BeginTransferTimeout(p, float64(c.body+headerBytes), req.ClientBW, rem)

		case callSent:
			if !ok {
				return c.timeout()
			}
			s.served++
			return c.done(Response{Status: 200, Bytes: c.body})
		}
	}
}

// timeout completes the call with the deadline error from wherever in the
// pipeline it ran out of time.
func (c *Call) timeout() bool { return c.done(Response{Err: ErrTimeout}) }

// endDynamic unwinds what the dynamic phase holds, most recent first: the
// DB connection, then the FastCGI image. It runs when the phase ends,
// before render and transmit, and from done when the phase fails.
func (c *Call) endDynamic() {
	if c.pooled {
		c.pooled = false
		c.s.dbPool.Release()
	}
	if c.forked {
		c.forked = false
		c.s.resident -= c.s.cfg.PerRequestMem
	}
}

// done is the pipeline's single completion path: it unwinds whatever the
// call still holds in reverse order of taking (each release pushes wake
// entries, so the order is observable), counts the outcome and records the
// response. It always reports false, for Step to return.
func (c *Call) done(resp Response) bool {
	s := c.s
	resp.ServerTime = s.env.Now() - c.start
	if resp.Err == ErrTimeout {
		s.timedOut++
	}
	c.endDynamic()
	if c.accepted {
		s.pending--
		// The worker slot is held beyond the response by WorkerHold
		// (lingering close): the response returns now, the slot frees later.
		if s.cfg.WorkerHold > 0 {
			s.env.After(s.cfg.WorkerHold, s.releaseWorker)
		} else {
			s.workers.Release()
		}
	}
	c.resp = resp
	return false
}

// burnCPU starts d of CPU demand (scaled by thrashing) under processor
// sharing, bounded by the request deadline. It reports whether p was
// suspended; if not, ok is the outcome already (no demand: true; deadline
// already passed: false).
func (s *Server) burnCPU(p *netsim.Proc, d time.Duration, deadline time.Duration) (suspended, ok bool) {
	if d <= 0 {
		return false, true
	}
	work := d.Seconds() * s.thrash() // core-seconds
	rem, live := s.remaining(deadline)
	if !live {
		return false, false
	}
	return s.cpu.BeginTransferTimeout(p, work, 1 /* one core max per request */, rem), true
}

// slowStartPenalty approximates TCP slow start as the extra round trips
// spent growing the congestion window before the transfer is
// bandwidth-limited: ceil(log2(bytes/(initcwnd*MSS))) RTTs.
func slowStartPenalty(bytes int64, rtt time.Duration) time.Duration {
	const (
		mss      = 1460
		initcwnd = 4
	)
	if rtt <= 0 || bytes <= initcwnd*mss {
		return 0
	}
	rounds := 0
	window := int64(initcwnd * mss)
	for window < bytes && rounds < 16 {
		window *= 2
		rounds++
	}
	return time.Duration(rounds) * rtt
}
