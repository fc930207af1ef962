package campaign

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"mfc/internal/core"
	"mfc/internal/population"
	"mfc/internal/scenario"
)

// chaosPlan is a small campaign sweeping the clean environment against a
// sustained-effect scenario (lossy) and a mid-run fault scenario
// (flaky-link), so a halt can land while scenario cells are mid-matrix and
// pending fault timers are armed.
func chaosPlan(t *testing.T, dir string) *Plan {
	t.Helper()
	plan, err := NewPlan("chaos-campaign",
		[]population.Band{population.Rank1M},
		[]core.Stage{core.StageBase},
		[]string{"", "lossy", "flaky-link"}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	plan.ShardJobs = 3
	if err := plan.Save(dir); err != nil {
		t.Fatal(err)
	}
	return plan
}

// The chaos acceptance contract: a campaign whose cells carry scenarios
// (sustained loss, link flaps mid-measurement) that is killed mid-run and
// resumed produces a byte-identical aggregate report to an uninterrupted
// run. Jobs re-derive the scenario from the plan alone, so interruption
// can't change which faults a resumed job sees.
func TestChaosScenarioResumeByteIdentical(t *testing.T) {
	clean := t.TempDir()
	plan := chaosPlan(t, clean)
	st := runToCompletion(t, clean, Options{Workers: 2})
	if st.NewlyDone != st.Total || st.Errored != 0 {
		t.Fatalf("clean run: %+v", st)
	}
	want := reportOf(t, clean)
	for _, label := range []string{"rank-100K-1M/Base/lossy", "rank-100K-1M/Base/flaky-link"} {
		if !strings.Contains(want, label) {
			t.Fatalf("report missing scenario cell %q:\n%s", label, want)
		}
	}

	// Kill after 5 of 12 jobs — straddling into the scenario cells — then
	// resume with a different worker count.
	resumed := t.TempDir()
	chaosPlan(t, resumed)
	st1, err := Run(context.Background(), resumed, Options{Workers: 2, HaltAfter: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !st1.Halted || st1.NewlyDone >= st1.Total {
		t.Fatalf("halted run: %+v", st1)
	}
	st2 := runToCompletion(t, resumed, Options{Workers: 3})
	if st2.AlreadyDone != st1.NewlyDone || st2.AlreadyDone+st2.NewlyDone != st2.Total {
		t.Fatalf("resume did not skip completed jobs: %+v then %+v", st1, st2)
	}
	if got := reportOf(t, resumed); got != want {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}

	// Every stored record carries its cell's scenario name (so merged
	// cross-store reports keep the cells apart), and the sustained-loss
	// cell measurably diverges from the clean cell — the scenario is
	// applied inside campaign jobs, not just recorded.
	store, err := OpenStore(clean, plan.ShardJobs)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	elapsed := map[string]map[int]int64{} // scenario -> site -> sim ns
	scan := NewShardScanner()
	for k := 0; k < plan.Shards(); k++ {
		recs, err := scan.Scan(store, k, plan.Jobs(), true)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			cell := plan.Cells[plan.CellOf(rec.Job)]
			if rec.Scenario != cell.Scenario {
				t.Fatalf("job %d stored scenario %q, plan says %q", rec.Job, rec.Scenario, cell.Scenario)
			}
			if elapsed[rec.Scenario] == nil {
				elapsed[rec.Scenario] = map[int]int64{}
			}
			elapsed[rec.Scenario][plan.SiteOf(rec.Job)] = rec.SimElapsedNs
		}
	}
	for _, sc := range []string{"", "lossy", "flaky-link"} {
		if len(elapsed[sc]) != plan.Sites {
			t.Fatalf("scenario %q has %d records, want %d", sc, len(elapsed[sc]), plan.Sites)
		}
	}
	diverged := 0
	for site, ns := range elapsed[""] {
		if elapsed["lossy"][site] != ns {
			diverged++
		}
	}
	if diverged == 0 {
		t.Fatal("lossy cell is byte-identical to clean cell: scenario not applied in jobs")
	}
}

// A typo'd scenario name fails at plan creation with the list of known
// scenario names, not mid-campaign.
func TestNewPlanRejectsUnknownScenario(t *testing.T) {
	_, err := NewPlan("bad", []population.Band{population.Rank1M},
		[]core.Stage{core.StageBase}, []string{"chaoz"}, 1, 1)
	if err == nil {
		t.Fatal("NewPlan accepted unknown scenario")
	}
	for _, wantSub := range []string{"chaoz", "chaos", "flaky-link"} {
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("error %q does not mention %q", err, wantSub)
		}
	}
}

// Campaign jobs run no background traffic, so a diurnal scenario, which
// only modulates it, would leave every record equal to its clean twin: a
// plan refuses it, by name or inline.
func TestPlanRejectsDiurnalScenario(t *testing.T) {
	for _, sc := range []string{"diurnal", `{"name":"tide","diurnal":{"period":60000000000,"low":0.5,"high":2}}`} {
		_, err := NewPlan("tide", []population.Band{population.Rank1M},
			[]core.Stage{core.StageBase}, []string{"", sc}, 1, 1)
		if err == nil || !strings.Contains(err.Error(), "background traffic") {
			t.Errorf("NewPlan(%s) = %v, want a background-traffic error", sc, err)
		}
	}
	// An inert diurnal modulates nothing and passes like any inert effect.
	still := `{"name":"still","diurnal":{}}`
	if _, err := NewPlan("still", []population.Band{population.Rank1M},
		[]core.Stage{core.StageBase}, []string{"", still}, 1, 1); err != nil {
		t.Errorf("NewPlan(%s) = %v, want an inert diurnal accepted", still, err)
	}
	for _, name := range Scenarios() {
		if name == "diurnal" {
			t.Error("Scenarios lists diurnal, which a plan refuses")
		}
	}
}

// Every scenario a plan accepts must change at least one record against
// its clean twin (same band, stage and site), or its cells measure the
// clean environment under another label. identical names the known
// exceptions; one that starts to differ fails too, so the list cannot go
// stale.
func TestEveryAcceptedScenarioChangesARecord(t *testing.T) {
	const undrained = "the limiter's bucket depth defaults to its 400 req/s rate, and a crowd of at most 50 never drains it"
	identical := map[string]string{"throttled": undrained, "waf-reject": undrained}
	bands := []population.Band{population.Rank1K, population.Rank1M, population.Startup}
	measure := func(sc string) ([]string, error) {
		plan, err := NewPlan("effect", bands, core.Stages, []string{sc}, 2, 3)
		if err != nil {
			return nil, err
		}
		out := make([]string, plan.Jobs())
		for j := range out {
			rec := Measure(plan, j, nil)
			rec.Scenario = ""
			b, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			out[j] = string(b)
		}
		return out, nil
	}
	clean, err := measure("")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range scenario.Names() {
		if name == "clean" {
			continue
		}
		recs, err := measure(name)
		if err != nil {
			continue // a plan refuses it
		}
		differ := 0
		for j := range recs {
			if recs[j] != clean[j] {
				differ++
			}
		}
		t.Logf("%s: %d of %d records differ from clean", name, differ, len(recs))
		why, known := identical[name]
		switch {
		case differ == 0 && !known:
			t.Errorf("scenario %s: all %d records equal their clean twins", name, len(recs))
		case differ > 0 && known:
			t.Errorf("scenario %s: %d of %d records differ from clean; drop it from the exceptions (%s)", name, differ, len(recs), why)
		}
	}
}
