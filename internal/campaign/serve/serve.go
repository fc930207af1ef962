// Package serve is the campaign's networked control plane: one process
// owns the plan and the result store, and any number of workers join over
// plain HTTP — no shared filesystem — with `mfc-campaign work -join`.
//
// The server hands out work as grants: one result shard's pending jobs
// plus a fence token, a per-shard counter bumped each time the shard is
// granted. Grants live in memory only — the server holds the directory's
// exclusive store lease, the one lease file it ever writes, so no other
// process could read a per-shard one — and die with the process: a
// restarted server refuses its predecessor's tokens. Workers heartbeat
// their grant; one silent for a full TTL on the server's clock
// (Options.Clock — time is an input, a fake in tests) is presumed dead, its
// grant is forgotten, and the shard's next grant carries the next token.
// Every later request bearing the old token — heartbeat, upload, seal —
// gets 410 Gone: how a wedged-but-alive worker learns it was fenced.
//
// Correctness never rests on the grants. Every record is a pure function
// of (plan, job index) and the report fold dedupes by job, so a
// duplicated grant — a fenced worker racing its successor, a replayed
// upload, a cloned worker id — can only waste work, never change a byte
// of the merged report. The grant machinery exists to make duplication
// rare and completion prompt, not to make results correct.
//
// The control plane serves the live campaign surface (analyze.Live) on
// the same listener, so /metrics, /progress, /analyze.json, /fleet.json
// and the HTML page describe the fleet from the one process that sees
// every record.
package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"mfc/internal/analyze"
	"mfc/internal/campaign"
	"mfc/internal/campaign/dist/lease"
	"mfc/internal/clock"
	"mfc/internal/core"
	"mfc/internal/obs"
)

// Wire types. The protocol is JSON over HTTP:
//
//	GET  /api/plan       -> campaign.Plan
//	GET  /api/status     -> StatusDoc
//	POST /api/grant      GrantRequest  -> GrantDoc
//	POST /api/heartbeat  ShardRef      -> 204 | 410
//	POST /api/records    IngestRequest -> 204 | 410
//	POST /api/done       ShardRef      -> 204 | 410
//	POST /api/spans      SpanBatch     -> 204
//
// 410 Gone means the fence token is stale: the shard was re-granted and
// the bearer must abandon it. Everything else non-2xx is a caller bug
// (400) or a server that cannot serve (503). Every response carries the
// campaign's trace id in the X-Mfc-Trace header; workers adopt it so all
// their spans land in one fleet trace.

// TraceHeader carries the campaign's trace id on every control-plane
// response (and is echoed back by workers on their requests).
const TraceHeader = "X-Mfc-Trace"

// GrantRequest asks for a work grant. Owner identifies the worker; two
// workers must never share an owner string (a duplicate owner is treated
// as a retry of the same worker and receives the same grant).
type GrantRequest struct {
	Owner string `json:"owner"`
}

// GrantDoc is the server's answer to a grant request: a shard's pending
// jobs plus the fence token, or a wait/complete signal.
type GrantDoc struct {
	// Complete: every job in the plan has a record; the worker can exit.
	Complete bool `json:"complete,omitempty"`
	// Wait: pending work exists but every pending shard is granted to a
	// live worker; poll again later (with backoff).
	Wait bool `json:"wait,omitempty"`

	Shard int   `json:"shard"`
	Gen   int64 `json:"gen"` // fence token: how many times the shard has been granted
	Jobs  []int `json:"jobs,omitempty"`
	// TTLNanos is the grant's staleness bound: heartbeat well within it
	// (the worker beats every TTL/3) or be presumed dead and fenced.
	TTLNanos int64 `json:"ttl_nanos,omitempty"`
}

// TTL returns the grant's staleness bound as a duration.
func (g GrantDoc) TTL() time.Duration { return time.Duration(g.TTLNanos) }

// ShardRef identifies a grant in heartbeat and done requests: the owner,
// the shard, and the fence token the grant carried.
type ShardRef struct {
	Owner string `json:"owner"`
	Shard int    `json:"shard"`
	Gen   int64  `json:"gen"`
}

// IngestRequest uploads completed records under a grant's fence token.
type IngestRequest struct {
	Owner   string            `json:"owner"`
	Shard   int               `json:"shard"`
	Gen     int64             `json:"gen"`
	Records []campaign.Record `json:"records"`
}

// SpanBatch uploads wall-clock spans from one worker. Spans are pure
// observability: no fence token is required (a fenced worker's spans are
// still wanted in the trace) and a malformed batch can cost at most
// bounded memory — the Fleet aggregator hard-caps everything it keeps.
type SpanBatch struct {
	Owner string     `json:"owner"`
	Spans []obs.Span `json:"spans"`
}

// StatusDoc is the /api/status snapshot.
type StatusDoc struct {
	Plan     string `json:"plan"`
	Total    int    `json:"total"`
	Done     int    `json:"done"`
	Complete bool   `json:"complete"`
	Workers  int    `json:"workers"` // owners holding an active grant
	Grants   int64  `json:"grants_total"`
	Regrants int64  `json:"regrants_total"`
	Fenced   int64  `json:"fenced_total"`
	Records  int64  `json:"records_total"`
}

// Options tunes a control plane.
type Options struct {
	// TTL is the grant staleness bound (default lease.DefaultTTL): a
	// worker silent this long is presumed dead and its shard re-granted.
	TTL time.Duration
	// StragglerK is the straggler threshold multiplier for the fleet view:
	// an active shard older than k× the median completed-shard duration is
	// flagged (default campaign.DefaultStragglerK).
	StragglerK float64
	// Clock is the one clock liveness is judged by — grant ages and the
	// store lease; nil means clock.Real, the only value outside tests.
	Clock clock.Clock
}

// grant is one outstanding shard grant, the only record of it anywhere.
type grant struct {
	owner    string
	shard    int
	gen      int64
	lastBeat time.Time
	jobs     []int
	newly    int // jobs ingested under this grant
}

// Server is the campaign control plane. Create with New, mount Handler
// on a listener (campaign.ServeUntil shuts it down cleanly), Close when
// done.
type Server struct {
	dir   string
	plan  *campaign.Plan
	store *campaign.Store
	opts  Options

	reg   *obs.Registry
	tr    *campaign.Tracker
	live  *analyze.Live
	fleet *campaign.Fleet

	mu        sync.Mutex
	done      []bool // job -> has a stored record
	doneCount int
	gens      []int64           // shard -> grants issued so far; the next fence token is gens[k]+1
	grants    map[int]*grant    // shard -> outstanding grant
	byOwner   map[string]*grant // owner -> its outstanding grant
	lastSeen  map[string]time.Time
	spanFiles map[string]*campaign.SpanWriter // owner -> span spill
	down      bool                            // closed, or the exclusive store lease was lost: refuse writes

	grantsTotal   obs.Counter
	regrantsTotal obs.Counter
	fencedTotal   obs.Counter
	recordsTotal  obs.Counter
	reapedTotal   obs.Counter
	hbAge         obs.GaugeVec

	completeOnce sync.Once
	complete     chan struct{}
}

// New opens the campaign in dir as a control plane. It takes the
// directory's exclusive store lease — filesystem workers (run, resume,
// work -dir) or a second control plane on the same dir fail fast instead
// of interleaving — and scans the store so a restarted server resumes where
// the last one stopped (grants die with the process; the scan, as always,
// is the authority).
func New(dir string, opts Options) (*Server, error) {
	r, err := campaign.OpenReader(dir)
	if err != nil {
		return nil, err
	}
	plan := r.Plan()
	if opts.TTL <= 0 {
		opts.TTL = lease.DefaultTTL
	}
	opts.Clock = clock.Or(opts.Clock)

	s := &Server{
		dir:       dir,
		plan:      plan,
		opts:      opts,
		gens:      make([]int64, plan.Shards()),
		grants:    make(map[int]*grant),
		byOwner:   make(map[string]*grant),
		lastSeen:  make(map[string]time.Time),
		spanFiles: make(map[string]*campaign.SpanWriter),
		fleet:     campaign.NewFleet(opts.StragglerK),
		complete:  make(chan struct{}),
	}
	s.store, err = campaign.OpenStoreLocked(opts.Clock, dir, plan.ShardJobs, lease.DefaultOwner(), opts.TTL, func() {
		s.mu.Lock()
		s.down = true
		s.mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	if s.done, err = r.Done(); err != nil {
		s.store.Close()
		return nil, err
	}
	start := plan.StartInfo(s.done)
	s.doneCount = start.AlreadyDone

	s.reg = obs.NewRegistry()
	s.tr = campaign.NewTracker(s.reg)
	s.tr.Start(start)
	s.grantsTotal = s.reg.Counter("mfc_serve_grants_total",
		"Work grants issued to joining workers.")
	s.regrantsTotal = s.reg.Counter("mfc_serve_regrants_total",
		"Grants that re-issued a shard after its worker went silent past the TTL.")
	s.fencedTotal = s.reg.Counter("mfc_serve_fenced_requests_total",
		"Requests refused with 410 Gone for carrying a stale fence token.")
	s.recordsTotal = s.reg.Counter("mfc_serve_records_ingested_total",
		"Result records ingested over HTTP (duplicates included; the report fold dedupes).")
	s.reapedTotal = s.reg.Counter("mfc_serve_reaped_grants_total",
		"Grants forgotten because their worker went silent past the TTL.")
	s.hbAge = s.reg.GaugeVec("mfc_serve_worker_heartbeat_age_seconds",
		"Seconds since each known worker was last heard from.", "owner")
	s.reg.GaugeFunc("mfc_serve_workers",
		"Workers currently holding a grant.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.byOwner))
		})
	s.live = analyze.NewLive(dir, s.reg, s.tr, s.fleet)

	if s.doneCount == plan.Jobs() {
		s.completeOnce.Do(func() { close(s.complete) })
	}
	return s, nil
}

// Plan returns the campaign plan the server owns.
func (s *Server) Plan() *campaign.Plan { return s.plan }

// Complete is closed once every job in the plan has a record.
func (s *Server) Complete() <-chan struct{} { return s.complete }

// Status snapshots the control plane's counters.
func (s *Server) Status() StatusDoc {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StatusDoc{
		Plan:     s.plan.Name,
		Total:    s.plan.Jobs(),
		Done:     s.doneCount,
		Complete: s.doneCount == s.plan.Jobs(),
		Workers:  len(s.byOwner),
		Grants:   s.grantsTotal.Value(),
		Regrants: s.regrantsTotal.Value(),
		Fenced:   s.fencedTotal.Value(),
		Records:  s.recordsTotal.Value(),
	}
}

// Close forgets every outstanding grant and releases the store lease.
func (s *Server) Close() error {
	s.mu.Lock()
	s.down = true
	clear(s.grants)
	clear(s.byOwner)
	for _, w := range s.spanFiles {
		if w != nil {
			w.Close()
		}
	}
	clear(s.spanFiles)
	s.mu.Unlock()
	return s.store.Close()
}

// errFenced marks a request refused for a stale fence token; errStore one
// the server cannot serve because its store is failing or lost.
var (
	errFenced = errors.New("serve: stale fence token (the shard was re-granted)")
	errStore  = errors.New("serve: result store unavailable")
)

// reapLocked forgets grants whose worker has been silent past the TTL.
// The shard's next grant carries the next token, which is exactly what
// fences the presumed-dead worker if it was merely slow.
func (s *Server) reapLocked() {
	cutoff := s.opts.Clock.Now().Add(-s.opts.TTL)
	for shard, g := range s.grants {
		if g.lastBeat.Before(cutoff) {
			delete(s.grants, shard)
			delete(s.byOwner, g.owner)
			s.reapedTotal.Inc()
		}
	}
}

// maxTrackedOwners bounds the per-owner maps (heartbeat-age gauges, span
// spill files) against a client inventing owner names.
const maxTrackedOwners = 512

// touchOwnerLocked records that owner was just heard from, and on first
// sight binds its heartbeat-age gauge; owners past the bound are served
// but not tracked. The gauge fn takes s.mu — safe because the registry
// calls gauge fns outside its own locks.
func (s *Server) touchOwnerLocked(owner string) {
	if owner == "" {
		return
	}
	if _, known := s.lastSeen[owner]; !known {
		if len(s.lastSeen) >= maxTrackedOwners {
			return
		}
		s.hbAge.Func(func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.opts.Clock.Now().Sub(s.lastSeen[owner]).Seconds()
		}, owner)
	}
	s.lastSeen[owner] = s.opts.Clock.Now()
}

// grantFor issues (or re-issues) a grant for the worker named owner.
func (s *Server) grantFor(owner string) (GrantDoc, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return GrantDoc{}, fmt.Errorf("%w: control plane is shut down or lost its store lease", errStore)
	}
	s.reapLocked()
	s.touchOwnerLocked(owner)

	// A retry from a worker that already holds a grant — or a duplicate
	// worker id — gets the same grant back, not a second shard.
	if g, ok := s.byOwner[owner]; ok {
		g.lastBeat = s.opts.Clock.Now()
		return GrantDoc{Shard: g.shard, Gen: g.gen, Jobs: g.jobs, TTLNanos: int64(s.opts.TTL)}, nil
	}
	if s.doneCount == s.plan.Jobs() {
		return GrantDoc{Complete: true}, nil
	}

	for k := 0; k < s.plan.Shards(); k++ {
		if _, taken := s.grants[k]; taken {
			continue
		}
		lo, hi := s.plan.ShardRange(k)
		var jobs []int
		for j := lo; j < hi; j++ {
			if !s.done[j] {
				jobs = append(jobs, j)
			}
		}
		if len(jobs) == 0 {
			continue
		}
		s.gens[k]++
		g := &grant{owner: owner, shard: k, gen: s.gens[k], lastBeat: s.opts.Clock.Now(), jobs: jobs}
		s.grants[k] = g
		s.byOwner[owner] = g
		s.grantsTotal.Inc()
		if g.gen > 1 {
			s.regrantsTotal.Inc()
		}
		s.tr.OnClaim(k)
		return GrantDoc{Shard: k, Gen: g.gen, Jobs: jobs, TTLNanos: int64(s.opts.TTL)}, nil
	}
	// Pending work exists but every pending shard is granted: wait.
	return GrantDoc{Wait: true, TTLNanos: int64(s.opts.TTL)}, nil
}

// grantLocked resolves a fence token to its live grant and refreshes the
// grant's liveness — any request under a good token is proof of life — or
// returns errFenced.
func (s *Server) grantLocked(owner string, shard int, gen int64) (*grant, error) {
	s.touchOwnerLocked(owner)
	g := s.grants[shard]
	if g == nil || g.owner != owner || g.gen != gen {
		s.fencedTotal.Inc()
		return nil, errFenced
	}
	g.lastBeat = s.opts.Clock.Now()
	return g, nil
}

// heartbeat handles /api/heartbeat: the token check is the whole of it.
func (s *Server) heartbeat(ref ShardRef) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.grantLocked(ref.Owner, ref.Shard, ref.Gen)
	return err
}

// ingest validates the fence token and appends the records to the store.
// Records for already-done jobs are appended anyway — the report fold
// dedupes by job, and proving that is cheaper than a server-side filter
// whose failure would be silent.
func (s *Server) ingest(req IngestRequest) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return fmt.Errorf("%w: not accepting records", errStore)
	}
	g, err := s.grantLocked(req.Owner, req.Shard, req.Gen)
	if err != nil {
		return err
	}
	lo, hi := s.plan.ShardRange(req.Shard)
	for i := range req.Records {
		if j := req.Records[i].Job; j < lo || j >= hi {
			return fmt.Errorf("serve: record for job %d is outside granted shard %d [%d,%d)", j, req.Shard, lo, hi)
		}
	}
	for i := range req.Records {
		rec := &req.Records[i]
		if err := s.store.Append(rec); err != nil {
			return fmt.Errorf("%w: %v", errStore, err)
		}
		s.recordsTotal.Inc()
		if !s.done[rec.Job] {
			s.done[rec.Job] = true
			s.doneCount++
			g.newly++
			s.tr.OnEvent(campaign.SiteEvent{
				Job: rec.Job, Band: rec.Band, Stage: rec.Stage,
				Scenario: rec.Scenario, Site: rec.Site,
				Event: core.ExperimentFinished{Target: rec.Site, Err: rec.Err},
			})
		}
	}
	if s.doneCount == s.plan.Jobs() {
		s.completeOnce.Do(func() { close(s.complete) })
	}
	return nil
}

// ingestSpans handles /api/spans: feed the fleet aggregator and spill the
// batch to the campaign's spans directory so `mfc-campaign trace` on the
// server side sees remote workers too. No fence check — a fenced worker's
// spans are still wanted — and the spill is best-effort: span loss never
// fails a request.
func (s *Server) ingestSpans(req SpanBatch) error {
	for i := range req.Spans {
		if req.Spans[i].Worker == "" {
			req.Spans[i].Worker = req.Owner
		}
	}
	s.fleet.Ingest(req.Spans)

	s.mu.Lock()
	s.touchOwnerLocked(req.Owner)
	owner := cmp.Or(req.Owner, "unknown")
	w, ok := s.spanFiles[owner]
	if !ok && len(s.spanFiles) < maxTrackedOwners && !s.down {
		w, _ = campaign.NewSpanWriter(campaign.SpanFilePath(s.dir, owner))
		s.spanFiles[owner] = w // nil on open failure: remembered, skipped
	}
	s.mu.Unlock()
	if w != nil {
		w.Write(req.Spans)
	}
	return nil
}

// sealShard handles /api/done: the worker finished its grant.
func (s *Server) sealShard(ref ShardRef) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, err := s.grantLocked(ref.Owner, ref.Shard, ref.Gen)
	if err != nil {
		return err
	}
	delete(s.grants, g.shard)
	delete(s.byOwner, g.owner)
	s.tr.OnShardDone(g.shard, g.newly)
	if err := s.store.CloseShard(g.shard); err != nil {
		return fmt.Errorf("%w: %v", errStore, err)
	}
	return nil
}

// Handler returns the control-plane mux: the /api endpoints plus the live
// campaign surface (metrics, progress, analyze.json, fleet.json, pprof,
// HTML) on the same listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/plan", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.plan)
	})
	mux.HandleFunc("/api/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Status())
	})
	mux.HandleFunc("/api/grant", func(w http.ResponseWriter, r *http.Request) {
		var req GrantRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		if req.Owner == "" {
			http.Error(w, "owner is required", http.StatusBadRequest)
			return
		}
		if g, err := s.grantFor(req.Owner); err != nil {
			finish(w, err)
		} else {
			writeJSON(w, g)
		}
	})
	mux.HandleFunc("/api/heartbeat", post(s.heartbeat))
	mux.HandleFunc("/api/records", post(s.ingest))
	mux.HandleFunc("/api/done", post(s.sealShard))
	mux.HandleFunc("/api/spans", post(s.ingestSpans))
	mux.Handle("/", s.live)
	// Stamp the campaign trace id on every response so joining workers
	// adopt it and all span files merge into one fleet trace.
	trace := campaign.PlanTraceID(s.plan)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(TraceHeader, trace)
		mux.ServeHTTP(w, r)
	})
}

// WaitQuit exposes the live surface's quit channel (POST /quit), so a
// harness can end a serve process that has no -until-done condition.
func (s *Server) WaitQuit() <-chan struct{} { return s.live.WaitQuit() }

// post adapts one of the 204-or-error endpoints: decode the body, run fn,
// map its error to a status.
func post[T any](fn func(T) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req T
		if decodeJSON(w, r, &req) {
			finish(w, fn(req))
		}
	}
}

// decodeJSON decodes a POST body, writing the HTTP error itself on
// failure. Bodies are capped well above any real record batch.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, 64<<20)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// finish maps a control-plane error to its HTTP status: fencing is 410
// Gone (the caller must abandon the shard), store trouble is 503 (the
// caller may retry), anything else is a caller bug, 400.
func finish(w http.ResponseWriter, err error) {
	switch {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, errFenced):
		http.Error(w, err.Error(), http.StatusGone)
	case errors.Is(err, errStore):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
