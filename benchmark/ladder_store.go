package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mfc/internal/analyze"
	"mfc/internal/campaign"
	"mfc/internal/campaign/dist"
	"mfc/internal/campaign/dist/lease"
	"mfc/internal/campaign/serve"
	"mfc/internal/experiments"
	"mfc/internal/obs"
)

func (l *ladder) tempDir(prefix string) (string, error) { return os.MkdirTemp(l.root, prefix) }

// appendAndManifest times the write side of the store with the records the
// measure step just produced.
func (l *ladder) appendAndManifest(recs []*campaign.Record) error {
	dir, err := l.tempDir("append-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	plan, err := planFor(wlRunClean, l.cfg.sizes(), l.cfg.seed)
	if err != nil {
		return err
	}
	st, err := campaign.OpenStore(dir, plan.ShardJobs)
	if err != nil {
		return err
	}
	defer st.Close()
	var appendUs, bytesPer []float64
	for n := 0; len(appendUs) < l.calls; n++ {
		rec := recs[n%len(recs)]
		t := time.Now()
		if err := st.Append(rec); err != nil {
			return err
		}
		appendUs = append(appendUs, us(time.Since(t)))
		if n < len(recs) {
			line, err := json.Marshal(rec)
			if err != nil {
				return err
			}
			bytesPer = append(bytesPer, float64(len(line)+1))
		}
	}
	l.set.samples("campaign.append_us", appendUs)
	l.set.value("campaign.record_bytes", mean(bytesPer))

	m := &campaign.Manifest{Plan: plan.Name, Total: plan.Jobs(), PerShard: make([]int, plan.Shards())}
	var manifestUs []float64
	for n := 0; n < l.calls; n++ {
		m.Done = n
		t := time.Now()
		if err := campaign.WriteManifest(dir, m); err != nil {
			return err
		}
		manifestUs = append(manifestUs, us(time.Since(t)))
	}
	l.set.samples("campaign.manifest_write_us", manifestUs)
	return nil
}

// store times the read side — scans, the report fold, analyze — and the
// control plane's start-up on a half-done copy of store-read's fixture
// (every second shard written).
func (l *ladder) store() error {
	dir, err := l.tempDir("half-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sz := l.cfg.sizes()
	plan, err := generateStore(dir, sz.StoreRecords, sz.StoreShardJobs, l.cfg.seed, func(k int) bool { return k%2 == 0 })
	if err != nil {
		return err
	}
	st, err := campaign.OpenStore(dir, plan.ShardJobs)
	if err != nil {
		return err
	}
	defer st.Close()

	sc := campaign.NewShardScanner()
	var compact, full, shardUs []float64
	var fullTime time.Duration
	var fullBytes int64
	for k := 0; k < plan.Shards(); k += 2 {
		t := time.Now()
		recs, err := sc.Scan(st, k, plan.Jobs(), false)
		d := time.Since(t)
		if err != nil || len(recs) == 0 {
			return fmt.Errorf("compact scan of shard %d: %d records, %v", k, len(recs), err)
		}
		compact = append(compact, us(d)/float64(len(recs))*1000)

		t = time.Now()
		recs, err = sc.Scan(st, k, plan.Jobs(), true)
		d = time.Since(t)
		if err != nil {
			return err
		}
		full = append(full, us(d)/float64(len(recs))*1000)
		fullTime += d
		if fi, err := os.Stat(shardFile(dir, k)); err == nil {
			fullBytes += fi.Size()
		}

		t = time.Now()
		analyze.AnalyzeShard(plan, recs)
		shardUs = append(shardUs, us(time.Since(t))/float64(len(recs))*1000)
	}
	l.set.samples("campaign.scan_compact_us_per_krec", compact)
	l.set.samples("campaign.scan_full_us_per_krec", full)
	l.set.value("campaign.scan_mb_per_s", float64(fullBytes)/1e6/fullTime.Seconds())
	l.set.samples("analyze.shard_us_per_krec", shardUs)

	ds, err := l.boxed(func(int) error { _, _, err := campaign.Summarize(dir); return err })
	if err != nil {
		return err
	}
	l.set.samples("campaign.summarize_ms", durations(ds, time.Millisecond))

	var an *analyze.Analysis
	ds, err = l.boxed(func(int) (err error) { an, err = analyze.Compute([]string{dir}); return err })
	if err != nil {
		return err
	}
	l.set.samples("analyze.compute_ms", durations(ds, time.Millisecond))
	var doc []byte
	ds, err = l.boxed(func(int) (err error) { doc, err = an.Doc().JSON(); return err })
	if err != nil {
		return err
	}
	l.set.samples("analyze.json_ms", durations(ds, time.Millisecond))
	l.set.value("analyze.doc_bytes", float64(len(doc)))

	ds, err = l.boxed(func(int) error {
		srv, err := serve.New(dir, serve.Options{})
		if err != nil {
			return err
		}
		return srv.Close()
	})
	if err != nil {
		return err
	}
	l.set.samples("serve.new_ms", durations(ds, time.Millisecond))
	return nil
}

func (l *ladder) lease() error {
	dir, err := l.tempDir("lease-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var acquire, beat, verify, release, takeover []float64
	for i := 0; i < l.calls; i++ {
		name := campaign.ShardLeaseName(i)
		t := time.Now()
		h, err := lease.Acquire(dir, name, "bench-a", lease.DefaultTTL)
		acquire = append(acquire, us(time.Since(t)))
		if err != nil {
			return err
		}
		t = time.Now()
		err = h.Heartbeat()
		beat = append(beat, us(time.Since(t)))
		if err != nil {
			return err
		}
		t = time.Now()
		err = h.Verify()
		verify = append(verify, us(time.Since(t)))
		if err != nil {
			return err
		}
		t = time.Now()
		err = h.Release()
		release = append(release, us(time.Since(t)))
		if err != nil {
			return err
		}
	}
	// Takeover: the incumbent promised a 1 ms TTL and never beats again.
	for i := 0; i < l.calls/4; i++ {
		name := fmt.Sprintf("stale-%04d", i)
		if _, err := lease.Acquire(dir, name, "bench-dead", time.Millisecond); err != nil {
			return err
		}
		time.Sleep(2 * time.Millisecond)
		t := time.Now()
		h, err := lease.Acquire(dir, name, "bench-heir", lease.DefaultTTL)
		takeover = append(takeover, us(time.Since(t)))
		if err != nil {
			return err
		}
		if !h.TookOver() {
			return fmt.Errorf("acquiring stale lease %s did not take over", name)
		}
	}
	l.set.samples("lease.acquire_us", acquire)
	l.set.samples("lease.heartbeat_us", beat)
	l.set.samples("lease.verify_us", verify)
	l.set.samples("lease.release_us", release)
	l.set.samples("lease.takeover_us", takeover)

	// ROADMAP's race as a number: W goroutines of one process race Acquire on
	// a fresh name; every winner beyond the first is a double win. Reported,
	// not gated. An Acquire that fails outright (the shared temp path) is
	// not a win.
	rounds, extra := 500, 0
	if l.cfg.short {
		rounds = 20
	}
	for r := 0; r < rounds; r++ {
		name := fmt.Sprintf("race-%04d", r)
		var wins atomic.Int32
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < l.cfg.workers; g++ {
			wg.Add(1)
			go func(owner string) {
				defer wg.Done()
				<-start
				if _, err := lease.Acquire(dir, name, owner, lease.DefaultTTL); err == nil {
					wins.Add(1)
				}
			}(fmt.Sprintf("racer-%d", g))
		}
		close(start)
		wg.Wait()
		extra += max(int(wins.Load())-1, 0)
	}
	l.set.value("lease.double_win_ratio", float64(extra)/float64(rounds))
	return nil
}

// fleetProbe runs the thin plan at quarter size through all three
// execution modes with every hook on, for the numbers only hooks give:
// campaign.Run's own overhead, dist's claim gaps and turnaround, and the
// control plane's regrant/fence counters.
func (l *ladder) fleetProbe() error {
	sz := l.cfg.sizes()
	if !l.cfg.short { // the smoke size is already too small to quarter
		sz = sz.quarter()
	}
	plan, err := thinPlan(sz.ThinSites, sz.ThinShardJobs, l.cfg.seed)
	if err != nil {
		return err
	}
	jobs := float64(plan.Jobs())
	w := float64(l.cfg.workers)

	// campaign.Run with Options.Spans: the job spans are Σ measure.
	spans := obs.NewSpanRecorder("bench-run", 1<<15)
	rep, dir, err := simulateOnce(l.ctx, l.root, plan, 1, true, func(dir string) (int, error) {
		return execRun(l.ctx, dir, l.cfg.workers, campaign.Options{Spans: spans})
	})
	defer os.RemoveAll(dir)
	if err != nil {
		return err
	}
	recorded, err := campaign.ReadSpans(dir)
	if err != nil {
		return err
	}
	l.set.value("campaign.run_thin_jobs_per_s", jobs/rep.wall.Seconds())
	l.set.value("campaign.run_overhead_us_per_job", (w*us(rep.wall)-jobSpanUs(recorded))/jobs)
	fleet := campaign.NewFleet(0)
	l.set.samples("campaign.fleet_ingest_ns_per_span", l.batches(len(recorded), func(int) { fleet.Ingest(recorded) }))

	// fleet-file with hooks.
	var reports []workerReport
	rep, fdir, err := simulateOnce(l.ctx, l.root, plan, 1, true, func(dir string) (n int, err error) {
		n, reports, err = execFleetFile(l.ctx, dir, l.cfg.workers, true)
		return n, err
	})
	defer os.RemoveAll(fdir)
	if err != nil {
		return err
	}
	recorded, err = campaign.ReadSpans(fdir)
	if err != nil {
		return err
	}
	var turnaround, gap []float64
	var workerUs float64
	var lastRecord, lastReturn int64
	takeovers, fenced := 0, 0
	for i := range reports {
		r := &reports[i]
		workerUs += float64(r.Returned-r.Started) / 1e3
		lastRecord, lastReturn = max(lastRecord, r.LastRecord), max(lastReturn, r.Returned)
		takeovers += r.Status.Takeovers
		fenced += r.Status.Fenced
		for k, s := range r.Shards {
			turnaround = append(turnaround, float64(s.Done-s.Claimed)/1e6)
			if k > 0 {
				gap = append(gap, float64(s.Claimed-r.Shards[k-1].Done)/1e3)
			}
		}
	}
	l.set.samples("dist.shard_turnaround_ms", turnaround)
	l.set.samples("dist.claim_gap_us", gap)
	l.set.value("dist.overhead_us_per_job", (workerUs-jobSpanUs(recorded))/jobs)
	l.set.value("dist.wasted_job_ratio", float64(rep.wasted)/jobs)
	l.set.value("dist.takeovers", float64(takeovers))
	l.set.value("dist.fenced", float64(fenced))
	l.set.value("dist.idle_tail_ms", float64(lastReturn-lastRecord)/1e6)

	merged, err := l.tempDir("merged-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(merged)
	t := time.Now()
	if err := dist.Merge([]string{fdir}, merged); err != nil {
		return err
	}
	l.set.value("dist.merge_ms", ms(time.Since(t)))

	// fleet-http, for the control plane's own counters.
	var status *serve.StatusDoc
	if _, _, err := simulateOnce(l.ctx, l.root, plan, 1, false, func(dir string) (n int, err error) {
		n, status, err = execFleetHTTP(l.ctx, dir, l.cfg.workers, nil, nil)
		return n, err
	}); err != nil {
		return err
	}
	l.set.value("serve.regrants", float64(status.Regrants))
	l.set.value("serve.fenced", float64(status.Fenced))
	return nil
}

// jobSpanUs sums the "job" spans a run recorded through its Spans option.
func jobSpanUs(spans []obs.Span) float64 {
	total := 0.0
	for i := range spans {
		if spans[i].Cat == "job" {
			total += float64(spans[i].End - spans[i].Start)
		}
	}
	return total
}

// serve times each control-plane endpoint with the handler called directly
// (httptest.NewRecorder: no socket, no net/http server) and, for the
// round-trip overhead, the same heartbeat over a loopback listener.
func (l *ladder) serve() error {
	dir, err := l.tempDir("serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// One shard per timed grant, 64 jobs per shard so ingest64 uploads one
	// whole shard in one request.
	n := l.calls
	plan, err := thinPlan(64*(n+2), 64, l.cfg.seed)
	if err != nil {
		return err
	}
	if err := plan.Save(dir); err != nil {
		return err
	}
	srv, err := serve.New(dir, serve.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()

	// A real thin record, re-addressed per job: the server only checks the
	// job index against the grant.
	template := campaign.Measure(plan, 0, nil)
	if template.Err != "" {
		return fmt.Errorf("template record: %s", template.Err)
	}
	record := func(job int) campaign.Record {
		r := *template
		r.Job, r.Site = job, fmt.Sprintf("%s-%05d", r.Band, job)
		return r
	}
	call := func(method, path string, body any, out any) (time.Duration, int, error) {
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				return 0, 0, err
			}
		}
		size := buf.Len()
		req := httptest.NewRequest(method, path, &buf)
		w := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(w, req)
		d := time.Since(t)
		if w.Code != http.StatusOK && w.Code != http.StatusNoContent {
			return d, size, fmt.Errorf("%s %s: %d %s", method, path, w.Code, w.Body.String())
		}
		if out != nil {
			if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
				return d, size, err
			}
		}
		return d, size, nil
	}

	grants := make([]serve.GrantDoc, n)
	owners := make([]string, n)
	var grantUs, beatUs, ingest1Us, ingest64Us, doneUs, statusUs, bodyBytes []float64
	for i := 0; i < n; i++ {
		owners[i] = fmt.Sprintf("bench-o%d", i)
		d, _, err := call("POST", "/api/grant", serve.GrantRequest{Owner: owners[i]}, &grants[i])
		if err != nil {
			return err
		}
		if len(grants[i].Jobs) != plan.ShardJobs {
			return fmt.Errorf("grant %d: %+v", i, grants[i])
		}
		grantUs = append(grantUs, us(d))
	}
	ref := func(i int) serve.ShardRef {
		return serve.ShardRef{Owner: owners[i], Shard: grants[i].Shard, Gen: grants[i].Gen}
	}
	for i := 0; i < n; i++ {
		d, _, err := call("POST", "/api/heartbeat", ref(i), nil)
		if err != nil {
			return err
		}
		beatUs = append(beatUs, us(d))
	}
	for i := 0; i < n; i++ {
		g := grants[i]
		one := serve.IngestRequest{Owner: owners[i], Shard: g.Shard, Gen: g.Gen, Records: []campaign.Record{record(g.Jobs[0])}}
		d, size, err := call("POST", "/api/records", one, nil)
		if err != nil {
			return err
		}
		ingest1Us = append(ingest1Us, us(d))
		bodyBytes = append(bodyBytes, float64(size))

		all := serve.IngestRequest{Owner: owners[i], Shard: g.Shard, Gen: g.Gen}
		for _, j := range g.Jobs {
			all.Records = append(all.Records, record(j))
		}
		if d, _, err = call("POST", "/api/records", all, nil); err != nil {
			return err
		}
		ingest64Us = append(ingest64Us, us(d)/float64(len(all.Records)))
	}
	for i := 0; i < n; i++ {
		d, _, err := call("GET", "/api/status", nil, nil)
		if err != nil {
			return err
		}
		statusUs = append(statusUs, us(d))
	}

	// Loopback round trip, before the grants are sealed: the same heartbeat
	// through net/http on both sides.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sctx, stop := context.WithCancel(l.ctx)
	served := make(chan error, 1)
	go func() { served <- campaign.ServeUntil(sctx, ln, h) }()
	client := &http.Client{Timeout: 10 * time.Second}
	var loopUs []float64
	var loopErr error
	for i := 0; i < n && loopErr == nil; i++ {
		body, _ := json.Marshal(ref(i))
		t := time.Now()
		resp, err := client.Post("http://"+ln.Addr().String()+"/api/heartbeat", "application/json", bytes.NewReader(body))
		if err != nil {
			loopErr = err
			break
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		loopUs = append(loopUs, us(time.Since(t)))
		if resp.StatusCode != http.StatusNoContent {
			loopErr = fmt.Errorf("loopback heartbeat: %s", resp.Status)
		}
	}
	client.CloseIdleConnections()
	stop()
	if err := <-served; err != nil && loopErr == nil {
		loopErr = err
	}
	if loopErr != nil {
		return loopErr
	}

	for i := 0; i < n; i++ {
		d, _, err := call("POST", "/api/done", ref(i), nil)
		if err != nil {
			return err
		}
		doneUs = append(doneUs, us(d))
	}
	l.set.samples("serve.grant_us", grantUs)
	l.set.samples("serve.heartbeat_us", beatUs)
	l.set.samples("serve.ingest1_us", ingest1Us)
	l.set.samples("serve.ingest64_us_per_rec", ingest64Us)
	l.set.samples("serve.done_us", doneUs)
	l.set.samples("serve.status_us", statusUs)
	l.set.value("serve.request_bytes_per_rec", mean(bodyBytes))
	l.set.value("serve.rtt_overhead_us", summarize(loopUs).Median-summarize(beatUs).Median)
	return nil
}

func (l *ladder) obs() error {
	rec := obs.NewSpanRecorder("bench", 4096)
	attrs := []obs.SpanAttr{obs.A("sealed", "true"), obs.A("jobs", "8")}
	var scratch []obs.Span
	record := func(per int) {
		for i := 0; i < per; i++ {
			rec.Start("job", "job", i&7, 0).End(attrs...)
		}
		scratch = rec.Drain(scratch[:0]) // keep the ring from wrapping
	}
	l.set.samples("obs.span_ns", l.batches(1000, record))
	n, _ := mallocs(func() {
		for i := 0; i < 1000; i++ {
			rec.Start("job", "job", i&7, 0).End(attrs...)
		}
	})
	l.set.value("obs.span_allocs", n/1000)

	// The registry a campaign process really exposes: the tracker's
	// families plus the per-run bridge.
	reg := obs.NewRegistry()
	campaign.NewTracker(reg)
	obs.NewRunMetrics(reg)
	var exposeUs []float64
	for i := 0; i < l.calls; i++ {
		t := time.Now()
		if _, err := reg.WriteTo(io.Discard); err != nil {
			return err
		}
		exposeUs = append(exposeUs, us(time.Since(t)))
	}
	l.set.samples("obs.expose_us", exposeUs)
	return nil
}

// experiments keeps three rows of BENCH_results.json alive in the ladder.
func (l *ladder) experiments() error {
	for _, e := range []struct {
		metric string
		run    func(i int) error
	}{
		{"experiments.figure3_ms", func(i int) error { _, err := experiments.Figure3(int64(i + 1)); return err }},
		{"experiments.table1_ms", func(int) error { _, err := experiments.Table1(); return err }},
		{"experiments.table3univ3_ms", func(int) error { _, err := experiments.Table3Univ3(); return err }},
	} {
		ds, err := l.boxed(e.run)
		if err != nil {
			return err
		}
		l.set.samples(e.metric, durations(ds, time.Millisecond))
	}
	return nil
}

// runTraced is the per-layer pass of one workload: the ladder, which is the
// same whatever the workload (so the all-workloads run skips it in every
// child but the first), then untraced and traced repetitions of the
// workload itself for the span attribution.
func runTraced(ctx context.Context, cfg config, log io.Writer) (*workloadResult, error) {
	root, err := cfg.workRoot()
	if err != nil {
		return nil, err
	}
	set := newMetricSet(traceOnly())
	if !cfg.noLadder {
		set = newMetricSet(perLayer)
		if err := newLadder(ctx, cfg, set, root).run(log); err != nil {
			return nil, err
		}
	}
	if err := traceWorkload(ctx, cfg, root, set, log); err != nil {
		return nil, err
	}
	if err := set.finish(); err != nil {
		return nil, err
	}
	set.print(log, cfg.workload)
	// Outputs are checked by the end-to-end pass; here "attempted" counts
	// the metrics measured, and a metric that could not be is an error above.
	return &workloadResult{Workload: cfg.workload, Seed: cfg.seed, Traced: true, Correct: true,
		Attempted: len(set.m), Repetitions: 1, Metrics: set.m}, nil
}
