package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mfc/internal/analyze"
	"mfc/internal/campaign"
	"mfc/internal/campaign/dist"
	"mfc/internal/core"
	"mfc/internal/obs"
)

// The traced pass records spans from the benchmark's own files, around the
// calls into each layer; spans inside the program are a later issue. A span
// is named "<layer>.<what>", layer being one of this repository's package
// names, and a layer's self time is its spans' duration minus what their
// children cover. All spans of one job share its job id.

// span is one timed interval; times are unix nanoseconds.
type span struct {
	ID, Parent uint64
	Job        int // -1: not tied to one job
	Name       string
	Worker     string
	Start, End int64
}

func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps spans in memory until the benchmark ends.
type recorder struct {
	mu    sync.Mutex
	ids   *atomic.Uint64 // shared with forks, so ids stay unique
	spans []span
}

func newRecorder() *recorder {
	return &recorder{ids: new(atomic.Uint64), spans: make([]span, 0, 1<<15)}
}

// fork returns a recorder one goroutine can fill without contending for
// the parent's lock; join folds it back in.
func (r *recorder) fork() *recorder { return &recorder{ids: r.ids, spans: make([]span, 0, 1<<14)} }

func (r *recorder) join(child *recorder) {
	r.mu.Lock()
	r.spans = append(r.spans, child.spans...)
	r.mu.Unlock()
}

func (r *recorder) id() uint64 { return r.ids.Add(1) }

// add records a finished span under a fresh id and returns the id.
func (r *recorder) add(parent uint64, job int, name, worker string, start, end int64) uint64 {
	s := span{ID: r.id(), Parent: parent, Job: job, Name: name, Worker: worker, Start: start, End: max(end, start)}
	r.put(s)
	return s.ID
}

// put records a span whose id the caller drew earlier (a parent's id is
// needed by its children before its own end is known).
func (r *recorder) put(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// traceLayers are the layers a share is printed for, on every workload; a
// layer that does not run in a workload has share 0. core's spans are cut
// between coordinator events, so from outside core includes the websim and
// netsim time beneath it.
var traceLayers = []string{"core", "mfc", "campaign", "dist", "serve", "analyze", "idle"}

// selfTimes returns each layer's self time and the top-level total. serve
// handler spans have no parent — they run on the server's goroutines — but
// the worker that sent the request is blocked inside a dist span meanwhile,
// so their time is taken out of dist's.
func selfTimes(spans []span) (map[string]float64, float64) {
	covered := make(map[uint64]int64, len(spans))
	byID := make(map[uint64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		if p := byID[s.Parent]; p != nil {
			covered[p.ID] += max(min(s.End, p.End)-max(s.Start, p.Start), 0)
		}
	}
	self := make(map[string]float64)
	total := 0.0
	for i := range spans {
		s := &spans[i]
		d := s.End - s.Start
		if s.Parent == 0 && s.layer() != "serve" {
			total += float64(d)
		}
		self[s.layer()] += float64(max(d-covered[s.ID], 0))
	}
	if blocked := min(self["serve"], self["dist"]); blocked > 0 {
		self["dist"] -= blocked
	}
	return self, total
}

// jobTiming is what one job's coordinator events say about where its
// wall time went: when the profiling stage ended and when each epoch did.
type jobTiming struct {
	Job      int     `json:"job"`
	Stage    int64   `json:"stage_ns,omitempty"` // StageStarted: open + crawl end here
	Epochs   []int64 `json:"epochs_ns,omitempty"`
	Requests int     `json:"requests,omitempty"` // scheduled, all epochs
}

// jobCutter folds SiteEvents into jobTimings. One cutter serves one
// measurement goroutine at a time.
type jobCutter struct {
	open map[int]*jobTiming
	done []jobTiming
}

func newJobCutter() *jobCutter { return &jobCutter{open: make(map[int]*jobTiming)} }

func (c *jobCutter) event(ev campaign.SiteEvent, now time.Time) {
	jt := c.open[ev.Job]
	if jt == nil {
		jt = &jobTiming{Job: ev.Job}
		c.open[ev.Job] = jt
	}
	switch e := ev.Event.(type) {
	case core.StageStarted:
		jt.Stage = now.UnixNano()
	case core.EpochCompleted:
		jt.Epochs = append(jt.Epochs, now.UnixNano())
		jt.Requests += e.Scheduled
	case core.ExperimentFinished:
		c.done = append(c.done, *jt)
		delete(c.open, ev.Job)
	}
}

// cutJob records the children of one campaign.Measure span [start, end]:
// mfc.profile from the call to the first StageStarted, then one core.epoch
// per EpochCompleted. What is left — site generation before, packaging
// after — is campaign's self time.
func cutJob(rec *recorder, parent uint64, jt *jobTiming, worker string, start, end int64) {
	if jt == nil || jt.Stage == 0 {
		return
	}
	clip := func(t int64) int64 { return min(max(t, start), end) }
	prev := clip(jt.Stage)
	rec.add(parent, jt.Job, "mfc.profile", worker, start, prev)
	for _, e := range jt.Epochs {
		e = clip(e)
		rec.add(parent, jt.Job, "core.epoch", worker, prev, e)
		prev = e
	}
}

// tracedRun stands in for campaign.Run on the run-* workloads: the same
// per-job path (Measure → Store.Append → WriteManifest every 64), on W
// goroutines, with a span around each call.
func tracedRun(dir string, plan *campaign.Plan, workers int, shared *recorder) (int, error) {
	store, err := campaign.OpenStore(dir, plan.ShardJobs)
	if err != nil {
		return 0, err
	}
	defer store.Close()
	var (
		next     atomic.Int64
		mu       sync.Mutex // manifest state, as in campaign.Run
		perShard = make([]int, plan.Shards())
		done     int
		firstErr error
		wg       sync.WaitGroup
	)
	manifest := func() error {
		return campaign.WriteManifest(dir, &campaign.Manifest{
			Plan: plan.Name, Total: plan.Jobs(), Done: done, PerShard: append([]int(nil), perShard...)})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker string) {
			defer wg.Done()
			rec := shared.fork()
			defer shared.join(rec)
			cut := newJobCutter()
			for {
				j := int(next.Add(1)) - 1
				if j >= plan.Jobs() {
					return
				}
				t0 := time.Now()
				r := campaign.Measure(plan, j, func(ev campaign.SiteEvent) { cut.event(ev, time.Now()) })
				t1 := time.Now()
				err := store.Append(r)
				t2 := time.Now()
				mu.Lock()
				perShard[plan.ShardOf(j)]++
				done++
				wrote := done%64 == 0
				if wrote && err == nil {
					err = manifest()
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				t3 := time.Now()
				if err != nil {
					return
				}
				job := rec.add(0, j, "campaign.job", worker, t0.UnixNano(), t3.UnixNano())
				m := rec.add(job, j, "campaign.measure", worker, t0.UnixNano(), t1.UnixNano())
				if n := len(cut.done); n > 0 {
					cutJob(rec, m, &cut.done[n-1], worker, t0.UnixNano(), t1.UnixNano())
					cut.done = cut.done[:0]
				}
				rec.add(job, j, "campaign.append", worker, t1.UnixNano(), t2.UnixNano())
				if wrote {
					rec.add(job, j, "campaign.manifest", worker, t2.UnixNano(), t3.UnixNano())
				}
			}
		}(workerOwner(w))
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	mu.Lock()
	defer mu.Unlock()
	return done, manifest()
}

// spanRing is the capacity of the program's own span recorder in traced
// fleet runs. The recorder's ring is pointerful live heap, and on thin jobs
// the collector runs every few dozen jobs: at 16k slots the marking alone
// made the traced run 25% slower. 2k slots is still several flush intervals
// of spans; importFleetSpans fails the run if the ring ever wrapped.
const spanRing = 1 << 11

// importFleetSpans turns the spans dist.Work / dist.WorkRemote recorded
// through WorkOptions.Spans (read back from dir/spans) into benchmark
// spans, and cuts each job span with the worker's own event timings.
func importFleetSpans(rec *recorder, dir string, jobs int, timings map[string][]jobTiming) error {
	spans, err := campaign.ReadSpans(dir)
	if err != nil {
		return err
	}
	names := map[string]string{"work": "dist.work", "shard": "dist.shard", "job": "campaign.measure", "idle": "idle.wait"}
	type key struct {
		worker string
		id     uint64
	}
	ids := make(map[key]uint64, len(spans))
	for i := range spans {
		if _, ok := names[spans[i].Cat]; ok && spans[i].End > spans[i].Start {
			ids[key{spans[i].Worker, spans[i].ID}] = rec.id()
		}
	}
	byJob := make(map[string]map[int]*jobTiming, len(timings))
	for worker, ts := range timings {
		m := make(map[int]*jobTiming, len(ts))
		for i := range ts {
			m[ts[i].Job] = &ts[i]
		}
		byJob[worker] = m
	}
	var jobSpans []span
	for i := range spans {
		sp := &spans[i]
		id, ok := ids[key{sp.Worker, sp.ID}]
		if !ok {
			continue // heartbeats overlap the jobs they run beside; events have no duration
		}
		s := span{ID: id, Parent: ids[key{sp.Worker, sp.Parent}], Job: -1, Name: names[sp.Cat],
			Worker: sp.Worker, Start: sp.Start * 1000, End: sp.End * 1000}
		if sp.Cat == "job" {
			s.Job, _ = strconv.Atoi(strings.TrimPrefix(sp.Name, "job "))
			jobSpans = append(jobSpans, s)
		}
		rec.put(s)
	}
	if len(jobSpans) < jobs {
		return fmt.Errorf("%d job spans for %d jobs: the span ring wrapped", len(jobSpans), jobs)
	}
	for i := range jobSpans {
		s := &jobSpans[i]
		cutJob(rec, s.ID, byJob[s.Worker][s.Job], s.Worker, s.Start, s.End)
	}
	return nil
}

// endpointStats is the timing middleware's per-endpoint tally.
type endpointStats struct {
	count int
	total time.Duration
	bytes int64
}

// handlerTimer wraps the control plane's handler: one serve.<endpoint> span
// per request, plus count, latency and request-body bytes per endpoint.
type handlerTimer struct {
	rec *recorder
	mu  sync.Mutex
	by  map[string]*endpointStats
}

func newHandlerTimer(rec *recorder) *handlerTimer {
	return &handlerTimer{rec: rec, by: make(map[string]*endpointStats)}
}

func (ht *handlerTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		name := strings.TrimPrefix(r.URL.Path, "/api/")
		// Span uploads and heartbeats run beside the measurement, not in its
		// way; they are tallied but are not blocking self time.
		if name != "spans" && name != "heartbeat" {
			ht.rec.add(0, -1, "serve."+name, "server", t0.UnixNano(), t1.UnixNano())
		}
		ht.mu.Lock()
		st := ht.by[name]
		if st == nil {
			st = &endpointStats{}
			ht.by[name] = st
		}
		st.count++
		st.total += t1.Sub(t0)
		st.bytes += max(r.ContentLength, 0)
		ht.mu.Unlock()
	})
}

func (ht *handlerTimer) print(w io.Writer, workload string) {
	names := make([]string, 0, len(ht.by))
	for name := range ht.by {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := ht.by[name]
		fmt.Fprintf(w, "# %s handler /api/%-9s n=%-6d mean=%8.1f us  body=%d B\n",
			workload, name, st.count, us(st.total)/float64(st.count), st.bytes)
	}
}

// tracedFleetFile is fleet-file with the workers' hooks and spans on. The
// returned function imports the spans; call it after the clock has stopped.
func tracedFleetFile(ctx context.Context, dir string, workers, jobs int, rec *recorder) (int, func() error, error) {
	measured, reports, err := execFleetFile(ctx, dir, workers, true)
	return measured, func() error {
		timings := make(map[string][]jobTiming, len(reports))
		for i := range reports {
			timings[reports[i].Status.Owner] = reports[i].Jobs
		}
		return importFleetSpans(rec, dir, jobs, timings)
	}, err
}

// tracedFleetHTTP is fleet-http with WorkOptions.Spans, event hooks and the
// handler middleware on; the returned function imports the spans.
func tracedFleetHTTP(ctx context.Context, dir string, workers, jobs int, rec *recorder, ht *handlerTimer) (int, func() error, error) {
	cutters := make([]*jobCutter, workers)
	owners := make([]string, workers)
	measured, _, err := execFleetHTTP(ctx, dir, workers, func(i int, o *dist.WorkOptions) {
		cut := newJobCutter()
		cutters[i], owners[i] = cut, o.Owner
		o.Spans = obs.NewSpanRecorder(o.Owner, spanRing)
		o.OnEvent = func(ev campaign.SiteEvent) { cut.event(ev, time.Now()) }
	}, ht.wrap)
	return measured, func() error {
		timings := make(map[string][]jobTiming, workers)
		for i, cut := range cutters {
			timings[owners[i]] = cut.done
		}
		return importFleetSpans(rec, dir, jobs, timings)
	}, err
}

// tracedRead is store-read's pass with a span around every shard's scan
// and fold: the three loops Store.Completed, campaign.Report and
// analyze.Compute run, replayed through the same exported per-shard
// functions.
func tracedRead(dir string, plan *campaign.Plan, rec *recorder) error {
	st, err := campaign.OpenStore(dir, plan.ShardJobs)
	if err != nil {
		return err
	}
	defer st.Close()
	sc := campaign.NewShardScanner()
	now := func() int64 { return time.Now().UnixNano() }
	const worker = "bench-reader"
	pass := func(name string, body func(parent uint64) error) error {
		id, t0 := rec.id(), now()
		err := body(id)
		rec.put(span{ID: id, Job: -1, Name: name, Worker: worker, Start: t0, End: now()})
		return err
	}
	scan := func(parent uint64, k int, full bool) ([]campaign.Record, error) {
		t0 := now()
		recs, err := sc.Scan(st, k, plan.Jobs(), full)
		rec.add(parent, -1, "campaign.scan", worker, t0, now())
		return recs, err
	}

	if err := pass("campaign.completed", func(p uint64) error {
		seen := make(map[int]bool)
		for k := 0; k < plan.Shards(); k++ {
			recs, err := scan(p, k, false)
			if err != nil {
				return err
			}
			for i := range recs {
				seen[recs[i].Job] = true
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := pass("campaign.report", func(p uint64) error {
		total := campaign.NewSummary(plan)
		for k := 0; k < plan.Shards(); k++ {
			recs, err := scan(p, k, false)
			if err != nil {
				return err
			}
			t0 := now()
			total.Merge(campaign.SummarizeShard(plan, recs))
			rec.add(p, -1, "campaign.summarize", worker, t0, now())
		}
		t0 := now()
		err := campaign.RenderReport(io.Discard, plan, total)
		rec.add(p, -1, "campaign.render", worker, t0, now())
		return err
	}); err != nil {
		return err
	}
	return pass("analyze.compute", func(p uint64) error {
		total := analyze.NewAnalysis(plan)
		for k := 0; k < plan.Shards(); k++ {
			recs, err := scan(p, k, true)
			if err != nil {
				return err
			}
			t0 := now()
			total.Merge(analyze.AnalyzeShard(plan, recs))
			rec.add(p, -1, "analyze.shard", worker, t0, now())
		}
		t0 := now()
		_, err := total.Doc().JSON()
		rec.add(p, -1, "analyze.json", worker, t0, now())
		return err
	})
}

// writeTrace writes the spans as Chrome trace-event JSON, the shape
// obs.WriteFleetTrace already uses for fleet traces (load it in Perfetto).
func writeTrace(path string, plan *campaign.Plan, spans []span) error {
	out := make([]obs.Span, len(spans))
	for i := range spans {
		s := &spans[i]
		shard := -1
		if s.Job >= 0 {
			shard = plan.ShardOf(s.Job)
		}
		out[i] = obs.Span{ID: s.ID, Parent: s.Parent, Name: s.Name, Cat: s.layer(), Worker: s.Worker,
			Shard: shard, Start: s.Start / 1000, End: s.End / 1000}
		if s.Job >= 0 {
			out[i].Attrs = []obs.SpanAttr{obs.AInt("job", int64(s.Job))}
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteFleetTrace(f, out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceWorkload runs the workload untraced, traced and untraced again, and
// emits trace.self_share.*, trace.unattributed_ratio and
// trace.overhead_ratio.
func traceWorkload(ctx context.Context, cfg config, root string, set *metricSet, log io.Writer) error {
	rec := newRecorder()
	var (
		untraced, traced time.Duration
		parallel         = float64(cfg.workers)
		ht               = newHandlerTimer(rec)
	)
	fx, err := setUp(ctx, cfg, root)
	if err != nil {
		return err
	}
	defer fx.cleanup()
	plan := fx.plan
	if cfg.workload == wlStoreRead {
		parallel = 1
		before, err := readOnce(fx.storeDir, plan)
		if err != nil {
			return err
		}
		t := time.Now()
		if err := tracedRead(fx.storeDir, plan, rec); err != nil {
			return err
		}
		traced = time.Since(t)
		after, err := readOnce(fx.storeDir, plan)
		if err != nil {
			return err
		}
		untraced = (before.wall + after.wall) / 2
	} else {
		plain := func() (time.Duration, error) {
			rep, _, err := simulateOnce(ctx, root, plan, 1, false, func(dir string) (int, error) {
				return execute(ctx, cfg.workload, dir, cfg.workers)
			})
			return rep.wall, err
		}
		before, err := plain()
		if err != nil {
			return err
		}
		importSpans := func() error { return nil }
		rep, dir, err := simulateOnce(ctx, root, plan, 1, true, func(dir string) (n int, err error) {
			switch cfg.workload {
			case wlFleetFile:
				n, importSpans, err = tracedFleetFile(ctx, dir, cfg.workers, plan.Jobs(), rec)
			case wlFleetHTTP:
				n, importSpans, err = tracedFleetHTTP(ctx, dir, cfg.workers, plan.Jobs(), rec, ht)
			default:
				n, err = tracedRun(dir, plan, cfg.workers, rec)
			}
			return n, err
		})
		if err == nil {
			err = importSpans()
		}
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("traced repetition: %w", err)
		}
		if rep.missing+rep.errored > 0 {
			return fmt.Errorf("traced repetition left %d jobs without a record and %d errored", rep.missing, rep.errored)
		}
		traced = rep.wall
		// One untraced repetition on each side of the traced one, so a
		// machine that drifts during the run does not read as overhead.
		after, err := plain()
		if err != nil {
			return err
		}
		untraced = (before + after) / 2
	}

	self, total := selfTimes(rec.spans)
	attributed := 0.0
	for _, layer := range traceLayers {
		attributed += self[layer]
	}
	for layer := range self {
		if !slices.Contains(traceLayers, layer) {
			return fmt.Errorf("span layer %q is not in traceLayers", layer)
		}
	}
	for _, layer := range traceLayers {
		share := 0.0
		if attributed > 0 {
			share = self[layer] / attributed
		}
		set.value("trace.self_share."+layer, share)
	}
	budget := untraced.Seconds() * 1e9 * parallel
	set.value("trace.unattributed_ratio", (budget-total)/budget)
	set.value("trace.overhead_ratio", traced.Seconds()/untraced.Seconds())
	fmt.Fprintf(log, "# %s trace: %d spans, untraced %.3fs traced %.3fs, top-level %.3fs of %.3fs (wall x %g)\n",
		cfg.workload, len(rec.spans), untraced.Seconds(), traced.Seconds(), total/1e9, budget/1e9, parallel)
	ht.print(log, cfg.workload)
	path := filepath.Join(cfg.dir, "out", "trace-"+cfg.workload+".json")
	if err := writeTrace(path, plan, rec.spans); err != nil {
		return err
	}
	fmt.Fprintf(log, "# %s trace written to %s\n", cfg.workload, path)
	return nil
}
