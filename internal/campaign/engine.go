package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"mfc/internal/campaign/dist/lease"
	"mfc/internal/clock"
	"mfc/internal/obs"
	"mfc/internal/runner"
)

// The shard-worker engine. Every way of executing a plan — `run`, `work
// -dir`, `work -join` — is this one loop: claim a shard, measure its
// pending jobs on the shared pool while heartbeating the claim, persist
// each record, seal the shard. What differs is only where claims come
// from and where records go, which is the ShardSource: file leases over a
// shared directory (LeaseSource, in this package) or HTTP grants from a
// control plane (dist.WorkRemote's source).

// The three outcomes a source reports besides success and plain failure.
var (
	// ErrWait is returned by Claim when work remains but every pending
	// shard is held by a live peer: the worker backs off and asks again.
	ErrWait = errors.New("campaign: all pending shards are held by live peers")
	// ErrComplete is returned by Claim when every job holds a record.
	ErrComplete = errors.New("campaign: complete")
	// ErrFenced is returned by a claim's Heartbeat, Persist or Seal when
	// the claim was lost to a successor (stale-lease takeover, re-grant):
	// the worker abandons the shard, releasing only what its own claim
	// holds (an open appender), never the successor's lease. Lost work
	// is only wasted, never wrong — records are pure functions of (plan,
	// job) and every reader dedupes. It is the lease package's own
	// sentinel, so the file-lease source needs no mapping; the grant source
	// maps the control plane's 410 onto it.
	ErrFenced = lease.ErrLost
)

// ShardSource hands one worker its shards.
type ShardSource interface {
	// Survey reports the campaign's shape before the first claim. The
	// worker calls it only when someone observes OnStart.
	Survey(ctx context.Context) (StartInfo, error)
	// Claim returns the next shard this worker holds exclusively, or
	// ErrWait / ErrComplete. The worker finishes (seals, releases or is
	// fenced off) one claim before asking for the next.
	Claim(ctx context.Context) (*Claim, error)
}

// Claim is one held shard: what to run, and the hold that keeps it ours.
type Claim struct {
	Shard    int
	Takeover bool          // displaced a stale owner
	TTL      time.Duration // staleness bound; the worker beats every TTL/3
	Jobs     []int         // the shard's jobs lacking a record, in job order
	Hold
}

// Hold is the backend half of a claim. Heartbeat, Persist and Seal return
// ErrFenced once the claim is lost; any other Heartbeat error is
// transient (the worker skips the beat), any other Persist or Seal error
// is fatal to the worker — nothing can be recorded.
type Hold interface {
	Heartbeat(ctx context.Context) error
	Persist(ctx context.Context, rec *Record) error
	// Seal gives the shard up with every job persisted.
	Seal(ctx context.Context) error
	// Release gives the shard up part-done (halt, cancellation, failure)
	// so a peer can claim the rest without waiting out the TTL. After a
	// lost claim it only closes what this hold has open; ErrFenced from it
	// then means nothing.
	Release() error
}

// WorkOptions tunes one worker invocation (never the campaign's results —
// those are fixed by the plan).
type WorkOptions struct {
	// Owner identifies this worker in lease files and grants; empty means
	// a process-unique id (host-pid-seq). Two workers must never share an
	// owner string.
	Owner string
	// Workers bounds the in-process measurement pool per shard (0 =
	// GOMAXPROCS), drawing from the process-wide runner budget
	// (runner.Shared) so a campaign can run alongside experiment sweeps
	// without over-subscribing.
	Workers int
	// TTL is the lease staleness bound (default lease.DefaultTTL). A
	// worker heartbeats every TTL/3; a peer whose heartbeat is older than
	// TTL — or whose pid is dead on this host — is taken over. Networked
	// workers inherit the control plane's TTL instead.
	TTL time.Duration
	// Poll is the base wait when every pending shard is held by a live
	// peer (default 2s). Idle waits back off exponentially from Poll to
	// 16×Poll with jitter, so a waiting fleet does not poll the store —
	// or the control plane, in networked mode — in lockstep.
	Poll time.Duration
	// HaltAfter stops claiming new jobs once this many sites finished in
	// this invocation (0 = run to completion). The count is driven by the
	// per-site ExperimentFinished events; in-flight jobs finish and are
	// stored, and the in-flight shard is released part-done. This is how
	// tests and CI simulate a killed worker deterministically; a real
	// kill -9 is also safe, it just loses the in-flight jobs.
	HaltAfter int

	// OnClaim, OnShardDone observe shard lifecycle (claimed; given up
	// with that many jobs newly completed). Called from the worker loop.
	OnClaim     func(shard int)
	OnShardDone func(shard int, newly int)
	// OnStart, when non-nil, observes the campaign's shape before any job
	// runs — the state a progress display needs to compute per-band ETAs.
	OnStart func(info StartInfo)
	// OnEvent, when non-nil, receives every site's coordinator events
	// (StageStarted, EpochCompleted, ..., terminal ExperimentFinished),
	// tagged with the job's identity. Jobs that fail before a coordinator
	// runs still deliver exactly one terminal event. Called from pool
	// workers; must be cheap and concurrency-safe.
	OnEvent func(ev SiteEvent)

	// Spans, when non-nil, records this worker's wall-clock spans: a root
	// "work" span (its spans_dropped attribute counts the spans the ring
	// overwrote before they were spilled), a claim event plus a "shard"
	// span per claim, a "job" span per measurement, a "heartbeat" span per
	// renewal, a "fence" event on losing a claim, and an "idle" span per
	// backoff wait. They are spilled to dir/spans/spans-<worker>.jsonl
	// (networked workers ship them to the control plane instead) and
	// flushed on return — including a SIGINT-canceled return, so an
	// interrupted worker still yields a loadable trace.
	Spans *obs.SpanRecorder
	// SpanTee, when non-nil, also receives every spilled span batch; the
	// -metrics dashboard feeds its local Fleet view through it.
	SpanTee func([]obs.Span)

	// Clock is what the worker waits, beats and judges staleness on; nil
	// means clock.Real, the only value outside tests.
	Clock clock.Clock
}

// WorkStatus summarizes one worker invocation.
type WorkStatus struct {
	Owner          string
	Total          int  // jobs in the plan
	NewlyDone      int  // jobs measured by this worker
	Errored        int  // of NewlyDone, measurement failures
	ShardsClaimed  int  // claims this worker acquired
	ShardsFinished int  // shards this worker sealed (all jobs present)
	Takeovers      int  // of ShardsClaimed, claims taken from stale owners
	Fenced         int  // shards abandoned after losing the claim
	Halted         bool // stopped early by HaltAfter
}

// Work runs one worker over src until the source reports the campaign
// complete, ctx is canceled (Work returns ctx's error), or HaltAfter
// trips. A measurement error is recorded in the job's record and counted,
// never fatal; a Persist or Seal failure is. spill may be nil; it is
// kicked after each claim so the claim reaches its sink immediately.
func Work(ctx context.Context, plan *Plan, src ShardSource, spill *SpanSpiller, opts WorkOptions) (*WorkStatus, error) {
	if opts.Poll <= 0 {
		opts.Poll = 2 * time.Second
	}
	opts.Clock = clock.Or(opts.Clock)
	st := &WorkStatus{Owner: opts.Owner, Total: plan.Jobs()}
	w := &shardWorker{plan: plan, src: src, spill: spill, opts: opts, st: st}
	w.root = opts.Spans.Start("work", "work", -1, 0)
	defer func() {
		w.root.End(obs.AInt("jobs", w.newly.Load()),
			obs.AInt("shards_claimed", int64(st.ShardsClaimed)),
			obs.AInt("fenced", int64(st.Fenced)),
			obs.AInt("spans_dropped", int64(opts.Spans.Dropped())))
	}()

	if opts.OnStart != nil {
		info, err := src.Survey(ctx)
		if err != nil {
			return nil, err
		}
		opts.OnStart(info)
	}

	// HaltAfter cancels this context once enough sites finished: the pool
	// stops claiming jobs, drains, and the shard is released part-done.
	haltCtx, halt := context.WithCancel(ctx)
	defer halt()
	w.halt = halt

	err := w.loop(haltCtx)
	st.NewlyDone = int(w.newly.Load())
	st.Errored = int(w.errored.Load())
	// A clean HaltAfter stop surfaces as exactly the cancellation our own
	// halt() caused; anything else — a store failure, a parent
	// cancellation — is a real error and must not be swallowed.
	if errors.Is(err, context.Canceled) && ctx.Err() == nil &&
		opts.HaltAfter > 0 && st.NewlyDone >= opts.HaltAfter {
		st.Halted = true
		return st, nil
	}
	return st, err
}

// shardWorker is the state of one Work invocation.
type shardWorker struct {
	plan  *Plan
	src   ShardSource
	spill *SpanSpiller
	opts  WorkOptions
	st    *WorkStatus

	halt    context.CancelFunc
	newly   atomic.Int64
	errored atomic.Int64
	root    obs.SpanRef
}

// loop claims and runs shards until the source says complete. ErrWait
// backs off from Poll with jitter (see Backoff); any claim resets the
// delay — churn observed means more churn is likely soon.
func (w *shardWorker) loop(ctx context.Context) error {
	idle := NewBackoff(w.opts.Poll, w.opts.Owner)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		c, err := w.src.Claim(ctx)
		switch {
		case errors.Is(err, ErrComplete):
			return nil
		case errors.Is(err, ErrWait):
			idleSpan := w.opts.Spans.Start("idle", "idle", -1, w.root.ID())
			t := w.opts.Clock.NewTimer(idle.Next())
			select {
			case <-ctx.Done():
				t.Stop()
				idleSpan.End(obs.A("reason", "canceled"))
				return ctx.Err()
			case <-t.C:
			}
			idleSpan.End()
			continue
		case err != nil:
			return err
		}
		idle.Reset()
		if err := w.runClaim(ctx, c); err != nil {
			return err
		}
	}
}

// runClaim measures and persists one claim's jobs under its heartbeat,
// then gives the shard up: sealed when every job was persisted, released
// part-done on halt, cancellation, failure or a lost claim (the successor
// owns it now). The error is what ends the worker.
func (w *shardWorker) runClaim(ctx context.Context, c *Claim) error {
	w.st.ShardsClaimed++
	if c.Takeover {
		w.st.Takeovers++
	}
	if w.opts.OnClaim != nil {
		w.opts.OnClaim(c.Shard)
	}
	// The claim event must reach the spill file (or control plane) right
	// away, not a flush interval later: it is what keeps a worker killed
	// seconds into its first shard visible in the merged trace, and what
	// arms the straggler clock while the shard is still running.
	w.opts.Spans.Event("claim", "claim", c.Shard, w.root.ID(), obs.ABool("takeover", c.Takeover))
	shardSpan := w.opts.Spans.Start(fmt.Sprintf("shard %d", c.Shard), "shard", c.Shard, w.root.ID())
	w.spill.Kick()

	// Fencing: heartbeat until the shard is done; losing the claim (we
	// wedged past the TTL and a peer took over) cancels this shard's jobs
	// so two workers don't grind the same range longer than a heartbeat.
	shardCtx, cancelShard := context.WithCancelCause(ctx)
	defer cancelShard(nil)
	stopBeat := startKeepAlive(shardCtx, w.opts.Clock, c.TTL, func(ctx context.Context) error {
		hb := w.opts.Spans.Start("heartbeat", "heartbeat", c.Shard, shardSpan.ID())
		err := c.Heartbeat(ctx)
		hb.End(obs.ABool("ok", err == nil))
		return err
	}, func() {
		w.opts.Spans.Event("fence", "fence", c.Shard, shardSpan.ID())
		cancelShard(ErrFenced)
	})

	before := w.newly.Load()
	err := w.measure(shardCtx, c, shardSpan.ID())
	stopBeat()
	fenced := errors.Is(err, ErrFenced) || errors.Is(context.Cause(shardCtx), ErrFenced)

	sealed := false
	switch {
	case fenced:
		// Release closes what the lost claim holds open, never the successor's.
		if err = c.Release(); errors.Is(err, ErrFenced) {
			err = nil
		}
	case err == nil:
		// Every pending job is measured and stored. Losing the claim on
		// the finish line changes nothing in the store, only who seals.
		if err = c.Seal(ctx); errors.Is(err, ErrFenced) {
			fenced, err = true, nil
		} else if err == nil {
			sealed = true
		}
	default:
		if rerr := c.Release(); rerr != nil {
			err = rerr
		}
	}
	if fenced {
		w.st.Fenced++
	}
	if sealed {
		w.st.ShardsFinished++
	}
	done := w.newly.Load() - before
	if w.opts.OnShardDone != nil {
		w.opts.OnShardDone(c.Shard, int(done))
	}
	shardSpan.End(obs.ABool("sealed", sealed), obs.ABool("fenced", fenced),
		obs.ABool("takeover", c.Takeover), obs.AInt("jobs", done))
	return err
}

// startKeepAlive starts the one liveness loop: every held lease and claim
// — a worker's shard, a control plane's store lock — is kept by beating
// every TTL/3 on the clock (the ticker is armed before this returns). Only
// a definitive ErrFenced gives the hold up — lost is called once and the
// loop ends; a transient failure (ENOSPC, NFS hiccup, dropped request)
// skips a beat and the next tick retries. If the failures outlast the TTL
// the hold goes stale, a peer takes over, and the next beat reports
// ErrFenced anyway. stop ends the loop and waits for it: no beat is in
// flight afterwards.
func startKeepAlive(ctx context.Context, clk clock.Clock, ttl time.Duration, beat func(context.Context) error, lost func()) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	t := clk.NewTicker(ttl / 3)
	go func() {
		defer close(done)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if errors.Is(beat(ctx), ErrFenced) {
					lost()
					return
				}
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// measure runs the claim's jobs on the shared pool, persisting each
// record as it completes — the loss window on a kill -9 is one in-flight
// job per pool worker. Jobs always run to completion: a canceled worker
// stops claiming jobs rather than storing aborted partials, which would
// poison resume determinism. parent is the shard span job spans hang off.
func (w *shardWorker) measure(ctx context.Context, c *Claim, parent uint64) error {
	return runner.ForEach(ctx, len(c.Jobs), func(jctx context.Context, i int) error {
		jobSpan := w.opts.Spans.Start(fmt.Sprintf("job %d", c.Jobs[i]), "job", c.Shard, parent)
		rec := Measure(w.plan, c.Jobs[i], w.onSite)
		jobSpan.End(obs.A("site", rec.Site), obs.A("verdict", rec.Verdict))
		if err := c.Persist(jctx, rec); err != nil {
			return err
		}
		if rec.Err != "" {
			w.errored.Add(1)
		}
		return nil
	}, runner.Workers(w.opts.Workers), runner.Shared())
}

// onSite fans a job's events out to the observers and counts terminal
// events (exactly one per job), which drive HaltAfter.
func (w *shardWorker) onSite(ev SiteEvent) {
	if w.opts.OnEvent != nil {
		w.opts.OnEvent(ev)
	}
	if !ev.Terminal() {
		return
	}
	if n := int(w.newly.Add(1)); w.opts.HaltAfter > 0 && n >= w.opts.HaltAfter {
		w.halt()
	}
}
