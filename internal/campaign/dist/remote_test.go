package dist

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mfc/internal/campaign"
	"mfc/internal/campaign/serve"
	"mfc/internal/clock/clocktest"
)

// startControlPlane opens dir as a control plane on an ephemeral
// listener and returns it with its address; shutdown is registered as
// cleanup so tests only speak HTTP to it, like real joined workers.
func startControlPlane(t *testing.T, dir string, opts serve.Options) (*serve.Server, string) {
	t.Helper()
	srv, err := serve.New(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
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
	return srv, ln.Addr().String()
}

// Three workers joined over HTTP — no filesystem shared with the plan —
// must be granted disjoint shards, finish the campaign, and reproduce
// the single-process report byte for byte.
func TestRemoteThreeWorkersByteIdentical(t *testing.T) {
	want := singleProcessReport(t, distPlan)

	dir := t.TempDir()
	plan := distPlan(t, dir)
	srv, addr := startControlPlane(t, dir, serve.Options{})

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
	srv, addr := startControlPlane(t, dir, serve.Options{TTL: ttl, Clock: clk})
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
	srv, addr := startControlPlane(t, dir, serve.Options{})
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
// mid-shard; the server reaps its silent grant after the TTL — real time:
// the victim's last requests may still be in flight when it dies, so no
// single step of a fake clock is known to come after them — re-grants
// the shard (bumping the fence), a rescuer finishes the campaign, and
// the report is byte-identical to an uninterrupted single-process run.
func TestRemoteKillNineByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill test")
	}
	want := singleProcessReport(t, killPlan)

	dir := t.TempDir()
	plan := killPlan(t, dir)
	srv, addr := startControlPlane(t, dir, serve.Options{TTL: 500 * time.Millisecond})

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
