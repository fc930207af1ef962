package serve

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"mfc/internal/campaign"
	"mfc/internal/campaign/dist/lease"
	"mfc/internal/core"
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

// ageLease rewrites a shard lease's heartbeat far into the past, the same
// way the dist package simulates a wedged worker; the server-side reaper
// uses the injected clock, but lease takeover reads the file.
func ageLease(t *testing.T, dir string, shard int) {
	t.Helper()
	ld := campaign.LeasesDir(dir)
	name := campaign.ShardLeaseName(shard)
	info, err := lease.Read(ld, name)
	if err != nil {
		t.Fatal(err)
	}
	info.HeartbeatUnixNano = time.Now().Add(-time.Hour).UnixNano()
	data, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(lease.Path(ld, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// The full grant/fence lifecycle at the Server level, with an injected
// clock: idempotent grants, silence past the TTL re-granting the shard
// with a bumped generation, every request under the old token refused,
// and duplicate ingests deliberately accepted.
func TestGrantFenceLifecycle(t *testing.T) {
	dir := t.TempDir()
	plan := servePlan(t, dir)
	srv, err := New(dir, Options{Owner: "cp", TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	now := time.Now()
	srv.now = func() time.Time { return now }

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

	// Both workers go silent for two TTLs. The reaper forgets their
	// grants; a's lease file is aged (its process would have stopped
	// heartbeating too), b's stays fresh, so only a's shard is
	// re-grantable.
	now = now.Add(2 * time.Minute)
	ageLease(t, dir, g1.Shard)
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

// A second control plane, a legacy run, or filesystem workers must fail
// fast on a dir a control plane already owns: New takes the exclusive
// store lease.
func TestServeTakesExclusiveStoreLease(t *testing.T) {
	dir := t.TempDir()
	servePlan(t, dir)
	srv, err := New(dir, Options{Owner: "cp-1", TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if second, err := New(dir, Options{Owner: "cp-2", TTL: time.Minute}); err == nil {
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
	srv, err := New(dir, Options{Owner: "cp", TTL: time.Minute})
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

	srv2, err := New(dir, Options{Owner: "cp", TTL: time.Minute})
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
