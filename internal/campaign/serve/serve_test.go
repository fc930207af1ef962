package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"mfc/internal/campaign"
	"mfc/internal/clock/clocktest"
	"mfc/internal/core"
	"mfc/internal/obs"
	"mfc/internal/population"
)

// servePlan saves the small distributed-test matrix: 2 cells x 6 sites =
// 12 jobs, ShardJobs 2 -> 6 shards. (testing.TB: the span-ingest fuzzer
// shares it.)
func servePlan(t testing.TB, dir string) *campaign.Plan {
	t.Helper()
	plan, err := campaign.NewPlan("serve-test",
		[]population.Band{population.Rank1M, population.Phishing},
		[]core.Stage{core.StageBase}, nil, 6, 99)
	if err != nil {
		t.Fatal(err)
	}
	plan.ShardJobs = 2
	if err := plan.Save(dir); err != nil {
		t.Fatal(err)
	}
	return plan
}

// call POSTs body (JSON-encoded unless already bytes) to the server's real
// handler, the way a joined worker would.
func call(t testing.TB, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	data, ok := body.([]byte)
	if !ok {
		var err error
		if data, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
	return rr
}

// grantOver asks for a grant over HTTP and decodes the answer.
func grantOver(t testing.TB, h http.Handler, owner string) GrantDoc {
	t.Helper()
	rr := call(t, h, "/api/grant", GrantRequest{Owner: owner})
	if rr.Code != http.StatusOK {
		t.Fatalf("POST /api/grant for %q = %d: %s", owner, rr.Code, rr.Body.String())
	}
	var g GrantDoc
	if err := json.Unmarshal(rr.Body.Bytes(), &g); err != nil {
		t.Fatal(err)
	}
	return g
}

// The full grant/fence lifecycle at the Server level, on the injected
// clock alone: idempotent grants, silence past the TTL re-granting the
// shard under the next token while a heartbeating peer keeps its own,
// every request under the old token refused, and duplicate ingests
// deliberately accepted.
func TestGrantFenceLifecycle(t *testing.T) {
	dir := t.TempDir()
	plan := servePlan(t, dir)
	clk := clocktest.New(time.Now())
	srv, err := New(dir, Options{TTL: time.Minute, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	g1, err := srv.grantFor("a")
	if err != nil {
		t.Fatal(err)
	}
	if g1.Complete || g1.Wait || len(g1.Jobs) != plan.ShardJobs || g1.Gen != 1 {
		t.Fatalf("first grant = %+v", g1)
	}
	// A retry from the same owner is the same grant, not a second shard.
	g1b, err := srv.grantFor("a")
	if err != nil {
		t.Fatal(err)
	}
	if g1b.Shard != g1.Shard || g1b.Gen != g1.Gen {
		t.Fatalf("same-owner re-grant = %+v, want %+v", g1b, g1)
	}
	// A second owner gets a disjoint shard.
	g2, err := srv.grantFor("b")
	if err != nil {
		t.Fatal(err)
	}
	if g2.Shard == g1.Shard {
		t.Fatalf("owners a and b share shard %d", g1.Shard)
	}

	// a goes silent for 80s, past the one-minute TTL; b heartbeats half-way
	// through, so the reaper forgets only a's grant and only a's shard is
	// re-grantable.
	clk.Advance(40 * time.Second)
	if err := srv.heartbeat(ShardRef{Owner: "b", Shard: g2.Shard, Gen: g2.Gen}); err != nil {
		t.Fatalf("b's heartbeat: %v", err)
	}
	clk.Advance(40 * time.Second)
	g3, err := srv.grantFor("c")
	if err != nil {
		t.Fatal(err)
	}
	if g3.Shard != g1.Shard {
		t.Fatalf("successor got shard %d, want a's shard %d", g3.Shard, g1.Shard)
	}
	if g3.Gen != g1.Gen+1 {
		t.Fatalf("re-grant gen = %d, want %d (fence must advance)", g3.Gen, g1.Gen+1)
	}

	// Everything bearing the old token is refused.
	old := ShardRef{Owner: "a", Shard: g1.Shard, Gen: g1.Gen}
	if err := srv.heartbeat(old); !errors.Is(err, errFenced) {
		t.Errorf("stale heartbeat: %v, want errFenced", err)
	}
	rec := campaign.Measure(plan, g3.Jobs[0], nil)
	staleUp := IngestRequest{Owner: "a", Shard: g1.Shard, Gen: g1.Gen,
		Records: []campaign.Record{*rec}}
	if err := srv.ingest(staleUp); !errors.Is(err, errFenced) {
		t.Errorf("stale upload: %v, want errFenced", err)
	}
	if err := srv.sealShard(old); !errors.Is(err, errFenced) {
		t.Errorf("stale seal: %v, want errFenced", err)
	}
	// b's token survived a's reaping.
	if err := srv.heartbeat(ShardRef{Owner: "b", Shard: g2.Shard, Gen: g2.Gen}); err != nil {
		t.Errorf("live peer's heartbeat after the reap: %v", err)
	}

	// The successor's token works, and replaying an upload is accepted
	// verbatim — the report fold dedupes, the store does not.
	up := IngestRequest{Owner: "c", Shard: g3.Shard, Gen: g3.Gen,
		Records: []campaign.Record{*rec}}
	if err := srv.ingest(up); err != nil {
		t.Fatalf("successor upload: %v", err)
	}
	if err := srv.ingest(up); err != nil {
		t.Fatalf("replayed upload: %v", err)
	}
	// A record outside the granted shard is a caller bug, not a fence.
	lo, hi := srv.plan.ShardRange(g3.Shard)
	var outside int
	for j := 0; j < plan.Jobs(); j++ {
		if j < lo || j >= hi {
			outside = j
			break
		}
	}
	bad := campaign.Measure(plan, outside, nil)
	badUp := IngestRequest{Owner: "c", Shard: g3.Shard, Gen: g3.Gen,
		Records: []campaign.Record{*bad}}
	if err := srv.ingest(badUp); err == nil || errors.Is(err, errFenced) {
		t.Errorf("out-of-shard upload: %v, want a non-fence error", err)
	}
	if err := srv.sealShard(ShardRef{Owner: "c", Shard: g3.Shard, Gen: g3.Gen}); err != nil {
		t.Fatalf("successor seal: %v", err)
	}

	st := srv.Status()
	if st.Regrants != 1 {
		t.Errorf("regrants = %d, want 1", st.Regrants)
	}
	if st.Fenced < 3 {
		t.Errorf("fenced = %d, want >= 3", st.Fenced)
	}
	if st.Records != 2 {
		t.Errorf("records = %d, want 2 (duplicate included)", st.Records)
	}
	if st.Done != 1 {
		t.Errorf("done = %d, want 1 (duplicate must not double-count)", st.Done)
	}
}

// A record ingested over HTTP counts its epochs into the campaign tracker,
// as a worker's own engine does in process; a replayed upload counts
// nothing, like the done count.
func TestIngestCountsEpochs(t *testing.T) {
	dir := t.TempDir()
	plan := servePlan(t, dir)
	srv, err := New(dir, Options{TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	g := grantOver(t, h, "w1")
	rec := campaign.Measure(plan, g.Jobs[0], nil)
	k := 0
	for _, sr := range rec.Result.Stages {
		k += len(sr.Epochs)
	}
	if k == 0 {
		t.Fatalf("measured record holds no epochs: %+v", rec)
	}
	up := IngestRequest{Owner: "w1", Shard: g.Shard, Gen: g.Gen, Records: []campaign.Record{*rec}}
	for i := 0; i < 2; i++ {
		if rr := call(t, h, "/api/records", up); rr.Code != http.StatusNoContent {
			t.Fatalf("POST /api/records = %d: %s", rr.Code, rr.Body.String())
		}
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if want := fmt.Sprintf("mfc_campaign_epochs_total %d\n", k); !strings.Contains(rr.Body.String(), want) {
		t.Errorf("scrape lacks %q:\n%s", want, rr.Body.String())
	}
}

// A second control plane, a legacy run, or filesystem workers must fail
// fast on a dir a control plane already owns: New takes the exclusive
// store lease.
func TestServeTakesExclusiveStoreLease(t *testing.T) {
	dir := t.TempDir()
	servePlan(t, dir)
	srv, err := New(dir, Options{TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if second, err := New(dir, Options{TTL: time.Minute}); err == nil {
		second.Close()
		t.Fatal("second control plane opened the same campaign dir")
	}
}

// A restarted control plane resumes from the store scan: jobs ingested by
// the previous incarnation stay done, and a full store is Complete
// immediately.
func TestServeRestartResumesFromStore(t *testing.T) {
	dir := t.TempDir()
	plan := servePlan(t, dir)
	srv, err := New(dir, Options{TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	g, err := srv.grantFor("w")
	if err != nil {
		t.Fatal(err)
	}
	var recs []campaign.Record
	for _, j := range g.Jobs {
		recs = append(recs, *campaign.Measure(plan, j, nil))
	}
	if err := srv.ingest(IngestRequest{Owner: "w", Shard: g.Shard, Gen: g.Gen, Records: recs}); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	srv2, err := New(dir, Options{TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := srv2.Status().Done; got != len(g.Jobs) {
		t.Fatalf("restarted server sees %d done jobs, want %d", got, len(g.Jobs))
	}
	// The restarted server never re-grants done jobs.
	g2, err := srv2.grantFor("w2")
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range g2.Jobs {
		for _, done := range g.Jobs {
			if j == done {
				t.Errorf("job %d re-granted after restart", j)
			}
		}
	}
}

// The control plane's grant table is in memory: through a whole grant ->
// heartbeat -> ingest -> done -> reap -> re-grant cycle driven over the
// real handler, the only lease file the directory ever holds is the
// exclusive store lease.
func TestServeWritesOnlyStoreLease(t *testing.T) {
	dir := t.TempDir()
	plan := servePlan(t, dir)
	clk := clocktest.New(time.Now())
	srv, err := New(dir, Options{TTL: time.Minute, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()

	onlyStoreLease := func(step string) {
		t.Helper()
		// Lease files only: the store lease's own heartbeat, which the fake
		// clock's jump sets off, passes through a temp file.
		names, err := filepath.Glob(filepath.Join(campaign.LeasesDir(dir), "*.lease"))
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 1 || filepath.Base(names[0]) != "store.g1.lease" {
			t.Fatalf("after %s leases/ holds %v, want exactly [store.g1.lease]", step, names)
		}
	}
	expect := func(step string, rr *httptest.ResponseRecorder, code int) {
		t.Helper()
		if rr.Code != code {
			t.Fatalf("%s = %d, want %d: %s", step, rr.Code, code, rr.Body.String())
		}
		onlyStoreLease(step)
	}

	g := grantOver(t, h, "w")
	onlyStoreLease("grant")
	ref := ShardRef{Owner: "w", Shard: g.Shard, Gen: g.Gen}
	expect("heartbeat", call(t, h, "/api/heartbeat", ref), http.StatusNoContent)
	var recs []campaign.Record
	for _, j := range g.Jobs {
		recs = append(recs, *campaign.Measure(plan, j, nil))
	}
	up := IngestRequest{Owner: "w", Shard: g.Shard, Gen: g.Gen, Records: recs}
	expect("ingest", call(t, h, "/api/records", up), http.StatusNoContent)
	expect("done", call(t, h, "/api/done", ref), http.StatusNoContent)

	// A second worker dies holding the next shard; its successor is
	// re-granted that shard under the next token.
	dead := grantOver(t, h, "dead")
	clk.Advance(2 * time.Minute)
	heir := grantOver(t, h, "heir")
	if heir.Shard != dead.Shard || heir.Gen != dead.Gen+1 {
		t.Fatalf("re-grant = %+v, want shard %d under token %d", heir, dead.Shard, dead.Gen+1)
	}
	onlyStoreLease("re-grant")
	expect("fenced heartbeat", call(t, h, "/api/heartbeat",
		ShardRef{Owner: "dead", Shard: dead.Shard, Gen: dead.Gen}), http.StatusGone)
}

// Grants die with the process: a token the previous incarnation issued is
// refused with 410 by its successor, and the fenced worker's next grant
// request simply succeeds.
func TestRestartRefusesOldTokens(t *testing.T) {
	dir := t.TempDir()
	servePlan(t, dir)
	srv, err := New(dir, Options{TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	old := grantOver(t, srv.Handler(), "w")
	srv.Close()

	srv2, err := New(dir, Options{TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	h := srv2.Handler()
	ref := ShardRef{Owner: "w", Shard: old.Shard, Gen: old.Gen}
	for path, body := range map[string]any{
		"/api/heartbeat": ref, "/api/done": ref,
		"/api/records": IngestRequest{Owner: "w", Shard: old.Shard, Gen: old.Gen},
	} {
		if rr := call(t, h, path, body); rr.Code != http.StatusGone {
			t.Errorf("%s under the previous incarnation's token = %d, want 410", path, rr.Code)
		}
	}
	if g := grantOver(t, h, "w"); g.Wait || g.Complete || len(g.Jobs) == 0 {
		t.Errorf("grant after restart = %+v, want a shard", g)
	}
}

// Every endpoint error lands in one of three classes: a stale token is 410
// (abandon the shard), a caller bug is 400 (do not retry), and a store that
// cannot take the write is 503 (retry later).
func TestErrorStatusClasses(t *testing.T) {
	dir := t.TempDir()
	plan := servePlan(t, dir)
	srv, err := New(dir, Options{TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	g := grantOver(t, h, "w")
	good := *campaign.Measure(plan, g.Jobs[0], nil)
	lo, hi := plan.ShardRange(g.Shard)
	foreign := *campaign.Measure(plan, (hi+1)%plan.Jobs(), nil)
	if foreign.Job >= lo && foreign.Job < hi {
		t.Fatalf("job %d is not outside shard %d", foreign.Job, g.Shard)
	}
	upload := func(gen int64, recs ...campaign.Record) IngestRequest {
		return IngestRequest{Owner: "w", Shard: g.Shard, Gen: gen, Records: recs}
	}
	// Appends to the granted shard fail: its file path is a directory.
	breakStore := func() {
		path := filepath.Join(dir, "shards", fmt.Sprintf("shard-%04d.jsonl", g.Shard))
		if err := os.Mkdir(path, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	loseLease := func() {
		srv.mu.Lock()
		srv.down = true
		srv.mu.Unlock()
	}

	for _, tc := range []struct {
		name, path string
		before     func()
		body       any
		want       int
	}{
		{"stale token", "/api/records", nil, upload(g.Gen+1, good), http.StatusGone},
		{"stale heartbeat", "/api/heartbeat", nil, ShardRef{Owner: "w", Shard: g.Shard, Gen: g.Gen + 1}, http.StatusGone},
		{"out-of-shard record", "/api/records", nil, upload(g.Gen, foreign), http.StatusBadRequest},
		{"bad body", "/api/records", nil, []byte("not json"), http.StatusBadRequest},
		{"grant without owner", "/api/grant", nil, GrantRequest{}, http.StatusBadRequest},
		{"failed append", "/api/records", breakStore, upload(g.Gen, good), http.StatusServiceUnavailable},
		{"lost store lease", "/api/records", loseLease, upload(g.Gen, good), http.StatusServiceUnavailable},
		{"grant after lost lease", "/api/grant", nil, GrantRequest{Owner: "w2"}, http.StatusServiceUnavailable},
	} {
		if tc.before != nil {
			tc.before()
		}
		if rr := call(t, h, tc.path, tc.body); rr.Code != tc.want {
			t.Errorf("%s: POST %s = %d, want %d: %s", tc.name, tc.path, rr.Code, tc.want,
				strings.TrimSpace(rr.Body.String()))
		}
	}
}

// Every name the tree's registries expose is in the Prometheus grammar:
// the control plane's (Tracker, Live, Fleet and its own series, with a
// worker heard from) and the run bridge's (with its labelled series hit).
func TestExposedNamesMatchGrammar(t *testing.T) {
	dir := t.TempDir()
	servePlan(t, dir)
	srv, err := New(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	grantOver(t, h, "w1")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))

	reg := obs.NewRegistry()
	observe := obs.NewRunMetrics(reg).Observer()
	observe(core.FaultInjected{Kind: "flap"})
	observe(core.ExperimentFinished{Result: &core.Result{Stages: []*core.StageResult{{Verdict: core.VerdictStopped, StoppingCrowd: 10}}}})
	var run strings.Builder
	reg.WriteTo(&run)

	scrape := rr.Body.String() + run.String()
	for _, want := range []string{"mfc_campaign_store_jobs_done ", "mfc_campaign_straggler_shards ",
		`mfc_serve_worker_heartbeat_age_seconds{owner="w1"}`, `mfc_run_faults_injected_total{kind="flap"`} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape lacks %s", want)
		}
	}
	metricName := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName := regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	series := regexp.MustCompile(`^([^{ ]+)(?:\{(.*)\})? \S+$`)
	label := regexp.MustCompile(`([^=,]+)="(?:[^"\\]|\\.)*"`)
	for _, line := range strings.Split(strings.TrimSpace(scrape), "\n") {
		var name, labels string
		if strings.HasPrefix(line, "# ") {
			name = strings.Fields(line)[2]
		} else if m := series.FindStringSubmatch(line); m != nil {
			name, labels = m[1], m[2]
		} else {
			t.Errorf("unparseable exposition line %q", line)
			continue
		}
		if !metricName.MatchString(name) || strings.HasPrefix(name, "__") {
			t.Errorf("metric name %q outside the grammar", name)
		}
		for _, l := range label.FindAllStringSubmatch(labels, -1) {
			if !labelName.MatchString(l[1]) || strings.HasPrefix(l[1], "__") {
				t.Errorf("label name %q of %s outside the grammar", l[1], name)
			}
		}
	}
}
