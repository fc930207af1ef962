package dist

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mfc/internal/campaign"
	"mfc/internal/campaign/serve"
	"mfc/internal/clock/clocktest"
	"mfc/internal/core"
	"mfc/internal/population"
)

// startControlPlane opens dir as a control plane on an ephemeral
// listener and returns it with its address and the listener's count of
// open connections; shutdown is registered as cleanup so tests only speak
// HTTP to it, like real joined workers.
func startControlPlane(t *testing.T, dir string, opts serve.Options) (*serve.Server, string, *atomic.Int64) {
	t.Helper()
	srv, err := serve.New(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	ln := &connCounter{Listener: inner}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- campaign.ServeUntil(ctx, ln, srv.Handler()) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("control plane listener: %v", err)
		}
		srv.Close()
	})
	return srv, ln.Addr().String(), &ln.open
}

// connCounter counts the connections it accepted that are not closed yet.
type connCounter struct {
	net.Listener
	open atomic.Int64
}

func (l *connCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.open.Add(1)
	return &countedConn{Conn: c, open: &l.open}, nil
}

type countedConn struct {
	net.Conn
	open *atomic.Int64
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.open.Add(-1) })
	return c.Conn.Close()
}

// Three workers joined over HTTP — no filesystem shared with the plan —
// must be granted disjoint shards, finish the campaign, and reproduce
// the single-process report byte for byte.
func TestRemoteThreeWorkersByteIdentical(t *testing.T) {
	want := singleProcessReport(t, distPlan)

	dir := t.TempDir()
	plan := distPlan(t, dir)
	srv, addr, _ := startControlPlane(t, dir, serve.Options{})

	statuses := make([]*WorkStatus, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := WorkRemote(context.Background(), addr, WorkOptions{
				Owner:   fmt.Sprintf("remote-%d", i),
				Workers: 2,
				Poll:    20 * time.Millisecond,
			})
			if err != nil {
				t.Errorf("remote worker %d: %v", i, err)
				return
			}
			statuses[i] = st
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	totalNew := 0
	for i, st := range statuses {
		totalNew += st.NewlyDone
		if st.Fenced != 0 {
			t.Errorf("worker %d fenced %d times with all peers live", i, st.Fenced)
		}
	}
	if totalNew != plan.Jobs() {
		t.Errorf("remote workers measured %d jobs total, want exactly %d (disjoint grants)", totalNew, plan.Jobs())
	}
	status := srv.Status()
	if !status.Complete || status.Regrants != 0 {
		t.Errorf("control plane status = %+v, want complete with no regrants", status)
	}
	select {
	case <-srv.Complete():
	default:
		t.Error("Complete channel not closed after the last record")
	}
	if got := reportOf(t, dir); got != want {
		t.Errorf("remote-worker report differs from single-process run:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// A worker that goes silent past the TTL is fenced: its shard is
// re-granted with a bumped generation, every request bearing the old
// token is refused with 410, and the campaign still ends byte-identical.
func TestRemoteStaleFenceRefused(t *testing.T) {
	want := singleProcessReport(t, distPlan)

	dir := t.TempDir()
	plan := distPlan(t, dir)
	ttl := 100 * time.Millisecond
	clk := clocktest.New(time.Now())
	srv, addr, _ := startControlPlane(t, dir, serve.Options{TTL: ttl, Clock: clk})
	rc := &remoteClient{base: normalizeAddr(addr), hc: &http.Client{Timeout: 10 * time.Second}}
	ctx := context.Background()

	var g serve.GrantDoc
	if err := rc.post(ctx, "/api/grant", serve.GrantRequest{Owner: "doomed"}, &g); err != nil {
		t.Fatal(err)
	}
	if g.Wait || g.Complete || len(g.Jobs) == 0 {
		t.Fatalf("grant = %+v", g)
	}
	// One record lands under the live token, then the worker goes silent.
	rec := campaign.Measure(plan, g.Jobs[0], nil)
	live := serve.IngestRequest{Owner: "doomed", Shard: g.Shard, Gen: g.Gen,
		Records: []campaign.Record{*rec}}
	if err := rc.post(ctx, "/api/records", live, nil); err != nil {
		t.Fatalf("upload under live token: %v", err)
	}
	clk.Advance(4 * ttl)

	// The heir is granted the dead worker's shard under the next fence.
	var heir serve.GrantDoc
	if err := rc.post(ctx, "/api/grant", serve.GrantRequest{Owner: "heir"}, &heir); err != nil {
		t.Fatal(err)
	}
	if heir.Shard != g.Shard {
		t.Fatalf("heir got shard %d, want the reaped shard %d", heir.Shard, g.Shard)
	}
	if heir.Gen != g.Gen+1 {
		t.Fatalf("heir gen = %d, want %d", heir.Gen, g.Gen+1)
	}
	// The jobs already stored under the old grant are not re-granted.
	for _, j := range heir.Jobs {
		if j == rec.Job {
			t.Errorf("job %d re-granted despite its stored record", j)
		}
	}

	// Every request with the stale token is 410 Gone.
	old := serve.ShardRef{Owner: "doomed", Shard: g.Shard, Gen: g.Gen}
	if err := rc.post(ctx, "/api/heartbeat", old, nil); err != campaign.ErrFenced {
		t.Errorf("stale heartbeat: %v, want campaign.ErrFenced", err)
	}
	if err := rc.post(ctx, "/api/records", live, nil); err != campaign.ErrFenced {
		t.Errorf("stale upload: %v, want campaign.ErrFenced", err)
	}
	if err := rc.post(ctx, "/api/done", old, nil); err != campaign.ErrFenced {
		t.Errorf("stale seal: %v, want campaign.ErrFenced", err)
	}

	// The heir finishes its shard; a plain joined worker sweeps the rest.
	for _, j := range heir.Jobs {
		r := campaign.Measure(plan, j, nil)
		up := serve.IngestRequest{Owner: "heir", Shard: heir.Shard, Gen: heir.Gen,
			Records: []campaign.Record{*r}}
		if err := rc.post(ctx, "/api/records", up, nil); err != nil {
			t.Fatalf("heir upload: %v", err)
		}
	}
	ref := serve.ShardRef{Owner: "heir", Shard: heir.Shard, Gen: heir.Gen}
	if err := rc.post(ctx, "/api/done", ref, nil); err != nil {
		t.Fatalf("heir seal: %v", err)
	}
	if _, err := WorkRemote(ctx, addr, WorkOptions{Owner: "finisher", Workers: 2, Poll: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	status := srv.Status()
	if status.Regrants < 1 {
		t.Errorf("regrants = %d, want >= 1", status.Regrants)
	}
	if status.Fenced < 3 {
		t.Errorf("fenced = %d, want >= 3", status.Fenced)
	}
	if got := reportOf(t, dir); got != want {
		t.Errorf("report after fencing differs from single-process run:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// Persist retries a transient upload failure after 0.5 s and again after
// 1 s of its clock: each retry is parked on a timer until the test moves
// time.
func TestPersistRetriesOnTheClock(t *testing.T) {
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if posts.Add(1) < 3 {
			http.Error(w, "store unavailable", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer ts.Close()
	clk := clocktest.New(time.Now())
	h := &grantHold{src: &grantSource{rc: &remoteClient{base: ts.URL, hc: ts.Client()}, clk: clk},
		ref: serve.ShardRef{Owner: "w", Shard: 0, Gen: 1}}

	done := make(chan error)
	go func() { done <- h.Persist(context.Background(), &campaign.Record{Job: 0}) }()
	for attempt, wait := range []time.Duration{500 * time.Millisecond, time.Second} {
		clk.BlockUntil(1)
		if n := posts.Load(); n != int64(attempt+1) {
			t.Fatalf("%d uploads before retry wait %d", n, attempt+1)
		}
		clk.Advance(wait)
	}
	if err := <-done; err != nil || posts.Load() != 3 {
		t.Fatalf("Persist = %v after %d uploads, want success on the third", err, posts.Load())
	}
}

// A deliberately duplicated grant: the same owner re-requests its grant
// (receiving the identical shard and fence), uploads its whole batch
// twice, and the duplicates land in the store — yet the merged report is
// byte-identical, because correctness rests on the report fold's dedupe,
// never on the grant machinery.
func TestRemoteDuplicateGrantByteIdentical(t *testing.T) {
	want := singleProcessReport(t, distPlan)

	dir := t.TempDir()
	plan := distPlan(t, dir)
	srv, addr, _ := startControlPlane(t, dir, serve.Options{})
	rc := &remoteClient{base: normalizeAddr(addr), hc: &http.Client{Timeout: 10 * time.Second}}
	ctx := context.Background()

	var g, dup serve.GrantDoc
	if err := rc.post(ctx, "/api/grant", serve.GrantRequest{Owner: "dup"}, &g); err != nil {
		t.Fatal(err)
	}
	if err := rc.post(ctx, "/api/grant", serve.GrantRequest{Owner: "dup"}, &dup); err != nil {
		t.Fatal(err)
	}
	if dup.Shard != g.Shard || dup.Gen != g.Gen || len(dup.Jobs) != len(g.Jobs) {
		t.Fatalf("duplicated grant %+v differs from original %+v", dup, g)
	}

	// Upload the full batch twice under the duplicated grant.
	var recs []campaign.Record
	for _, j := range g.Jobs {
		recs = append(recs, *campaign.Measure(plan, j, nil))
	}
	up := serve.IngestRequest{Owner: "dup", Shard: g.Shard, Gen: g.Gen, Records: recs}
	for i := 0; i < 2; i++ {
		if err := rc.post(ctx, "/api/records", up, nil); err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
	}
	if err := rc.post(ctx, "/api/done", serve.ShardRef{Owner: "dup", Shard: g.Shard, Gen: g.Gen}, nil); err != nil {
		t.Fatalf("seal: %v", err)
	}

	if _, err := WorkRemote(ctx, addr, WorkOptions{Owner: "finisher", Workers: 2, Poll: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	// The duplicates really are in the store (ingest filters nothing)...
	status := srv.Status()
	wantRecords := int64(plan.Jobs() + len(g.Jobs))
	if status.Records != wantRecords {
		t.Errorf("records ingested = %d, want %d (duplicates kept)", status.Records, wantRecords)
	}
	// ...and the report is still the single-process bytes.
	if got := reportOf(t, dir); got != want {
		t.Errorf("report with duplicated grant differs:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// A networked worker stopped by HaltAfter stores every job it finished:
// the job that trips the halt included, whose upload goes out after the
// halt has canceled the jobs.
func TestRemoteHaltAfterStoresEveryFinishedJob(t *testing.T) {
	for _, halt := range []int{1, 3, 5} {
		dir := t.TempDir()
		distPlan(t, dir)
		srv, addr, _ := startControlPlane(t, dir, serve.Options{})
		st, err := WorkRemote(context.Background(), addr, WorkOptions{Owner: "halter", Workers: 1, HaltAfter: halt})
		if err != nil {
			t.Fatalf("HaltAfter %d: %v", halt, err)
		}
		if !st.Halted || st.NewlyDone != halt {
			t.Errorf("HaltAfter %d: status %+v, want halted after %d jobs", halt, *st, halt)
		}
		if done := srv.Status().Done; done != st.NewlyDone {
			t.Errorf("HaltAfter %d: the server stored %d jobs, the worker finished %d", halt, done, st.NewlyDone)
		}
	}
}

// batchPlan is one band in shards of 40, 40 and 10 jobs: larger than the
// engine's batch of 16, so a shard's records need several uploads.
func batchPlan(t *testing.T, dir string) *campaign.Plan {
	t.Helper()
	plan, err := campaign.NewPlan("dist-batch",
		[]population.Band{population.Rank1M},
		[]core.Stage{core.StageBase}, nil, 90, 7)
	if err != nil {
		t.Fatal(err)
	}
	plan.ShardJobs = 40
	if err := plan.Save(dir); err != nil {
		t.Fatal(err)
	}
	return plan
}

// A networked worker uploads records in batches: at most one upload per
// batch of each shard's pending jobs, every one counted by
// mfc_serve_record_uploads_total, and the report is still the
// single-process bytes. The engine's batch is 16 records, or half a claim
// smaller than 32: the 40-job shards take 3 uploads, the 10-job one 2.
func TestRemoteBatchesUploads(t *testing.T) {
	batch := func(jobs int) int { return min(16, (jobs+1)/2) }
	want := singleProcessReport(t, batchPlan)

	dir := t.TempDir()
	plan := batchPlan(t, dir)
	srv, err := serve.New(dir, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var posts atomic.Int64
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/records" {
			posts.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	if _, err := WorkRemote(context.Background(), ts.URL, WorkOptions{Owner: "batcher", Workers: 2}); err != nil {
		t.Fatal(err)
	}
	bound := int64(0)
	for k := 0; k < plan.Shards(); k++ {
		lo, hi := plan.ShardRange(k)
		bound += int64((hi - lo + batch(hi-lo) - 1) / batch(hi-lo))
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var uploads int64
	if _, err := fmt.Sscan(metricLine(string(scrape), "mfc_serve_record_uploads_total"), &uploads); err != nil {
		t.Fatalf("mfc_serve_record_uploads_total: %v", err)
	}
	if n := posts.Load(); n != uploads || n > bound || n == 0 {
		t.Errorf("%d record uploads, the counter says %d; want them equal and in 1..%d", n, uploads, bound)
	}
	if got := reportOf(t, dir); got != want {
		t.Errorf("batched-upload report differs from single-process run:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// metricLine returns the value of the unlabeled series name in a scrape.
func metricLine(scrape, name string) string {
	for _, line := range strings.Split(scrape, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	return ""
}

// TestHelperRemoteWorkProcess is not a test: it is the subprocess body
// for TestRemoteKillNineByteIdentical, entered by re-executing the test
// binary. It knows only the control plane's address — no campaign dir.
func TestHelperRemoteWorkProcess(t *testing.T) {
	if os.Getenv("MFC_DIST_HELPER_REMOTE") != "1" {
		t.Skip("helper process entry point; spawned by TestRemoteKillNineByteIdentical")
	}
	_, err := WorkRemote(context.Background(), os.Getenv("MFC_DIST_ADDR"), WorkOptions{
		Owner:   "remote-victim",
		Workers: 2,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "remote helper:", err)
		os.Exit(1)
	}
}

// The networked acceptance scenario: a joined worker is SIGKILLed
// mid-shard; once its grant has aged past the TTL on the server's fake
// clock, the server re-grants the shard (bumping the fence), a rescuer
// finishes the campaign, and the report is byte-identical to an
// uninterrupted single-process run.
func TestRemoteKillNineByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill test")
	}
	want := singleProcessReport(t, killPlan)

	dir := t.TempDir()
	plan := killPlan(t, dir)
	const ttl = 500 * time.Millisecond
	clk := clocktest.New(time.Now())
	srv, addr, open := startControlPlane(t, dir, serve.Options{TTL: ttl, Clock: clk})

	cmd := exec.Command(os.Args[0], "-test.run", "^TestHelperRemoteWorkProcess$")
	cmd.Env = append(os.Environ(), "MFC_DIST_HELPER_REMOTE=1", "MFC_DIST_ADDR="+addr)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Kill -9 once the victim's uploads are landing: it then provably
	// holds a grant mid-shard. Unlike the filesystem kill test the lease
	// pid is the server's (alive), so staleness is purely TTL.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("remote victim uploaded no records within 30s")
		}
		if shardBytes(t, dir) > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
		t.Fatal(err)
	}
	cmd.Wait()

	// The victim's last requests may still sit unserved at the server, and
	// a heartbeat served after the jump below would refresh its grant. The
	// server closes a dead peer's connection only after serving whatever it
	// had sent, so once none is open the jump comes after all of them.
	for open.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections of the killed victim still open", open.Load())
		}
		time.Sleep(time.Millisecond)
	}
	clk.Advance(2 * ttl)

	st, err := WorkRemote(context.Background(), addr, WorkOptions{
		Owner:   "remote-rescuer",
		Workers: 2,
		Poll:    50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("rescuer: %v", err)
	}
	if st.NewlyDone == 0 {
		t.Fatal("rescuer found nothing to do; victim was not killed mid-campaign")
	}

	status := srv.Status()
	if !status.Complete {
		t.Errorf("campaign incomplete after rescue: %+v", status)
	}
	if status.Regrants == 0 {
		t.Error("victim's shard was never re-granted (no fence bump observed)")
	}
	got := reportOf(t, dir)
	if got != want {
		t.Errorf("report after kill -9 + re-grant differs from uninterrupted run:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if status.Done != plan.Jobs() {
		t.Errorf("done = %d, want %d", status.Done, plan.Jobs())
	}
}
