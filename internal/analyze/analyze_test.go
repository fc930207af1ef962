package analyze

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"mfc/internal/campaign"
	"mfc/internal/core"
	"mfc/internal/population"
)

var update = flag.Bool("update", false, "regenerate testdata/ministore and testdata/golden.json")

// miniPlan is the golden campaign: one underprovisioned band swept across
// the clean baseline and both limiter counter-measures, crossing a shard
// boundary (ShardJobs 5 over 12 jobs -> 3 shard files). rank-100K-1M
// sites all stop under clean conditions at this seed, so the
// fast-junk-200 cell's evasion shows up in the confusion matrix.
func miniPlan(t *testing.T, dir string) *campaign.Plan {
	t.Helper()
	plan, err := campaign.NewPlan("analyze-mini",
		[]population.Band{population.Rank1M},
		[]core.Stage{core.StageBase},
		[]string{"clean", "waf-reject", "fast-junk-200"}, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	plan.ShardJobs = 5
	if err := plan.Save(dir); err != nil {
		t.Fatal(err)
	}
	return plan
}

func runAll(t *testing.T, dir string, opts campaign.Options) *campaign.Status {
	t.Helper()
	st, err := campaign.Run(context.Background(), dir, opts)
	if err != nil {
		t.Fatalf("run in %s: %v", dir, err)
	}
	return st
}

func docJSON(t *testing.T, dirs ...string) []byte {
	t.Helper()
	a, err := Compute(dirs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := a.Doc().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenMiniStore locks the full analyze JSON over a checked-in mini
// store: curves, knees, rollups, and the confusion matrix with its
// fast-junk-200 evasion row. Regenerate both with -update after a
// deliberate format or engine change.
func TestGoldenMiniStore(t *testing.T) {
	store := filepath.Join("testdata", "ministore")
	golden := filepath.Join("testdata", "golden.json")
	if *update {
		if err := os.RemoveAll(store); err != nil {
			t.Fatal(err)
		}
		miniPlan(t, store)
		st := runAll(t, store, campaign.Options{Workers: 1})
		if st.AlreadyDone+st.NewlyDone != st.Total || st.Errored != 0 {
			t.Fatalf("mini campaign did not complete cleanly: %+v", st)
		}
		if err := os.WriteFile(golden, docJSON(t, store), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/analyze -run TestGoldenMiniStore -update` to generate)", err)
	}
	got := docJSON(t, store)
	if !bytes.Equal(got, want) {
		t.Errorf("analyze JSON drifted from golden:\n--- want\n%s\n--- got\n%s", want, got)
	}

	// The golden store is also the fixture for the evasion claim: the
	// fast-junk-200 cell must show sites whose clean-predicted Stopped
	// flipped to NoStop.
	var doc Doc
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	var junk *ConfusionDoc
	for i := range doc.Confusion {
		if doc.Confusion[i].Scenario == "fast-junk-200" {
			junk = &doc.Confusion[i]
		}
	}
	if junk == nil {
		t.Fatal("no fast-junk-200 confusion entry in golden doc")
	}
	if junk.Evaded == 0 {
		t.Errorf("fast-junk-200 evaded no sites in the golden store; the scenario exercises nothing: %+v", junk)
	}
}

// TestPartialThenResumedAnalyze is the kill-mid-campaign contract:
// analyzing a partially-sealed store yields exactly the uninterrupted
// run's analytics for every cell whose jobs all completed, and after
// resume the whole document is byte-identical.
func TestPartialThenResumedAnalyze(t *testing.T) {
	clean := t.TempDir()
	plan := miniPlan(t, clean)
	runAll(t, clean, campaign.Options{Workers: 1})
	want := docJSON(t, clean)
	var wantDoc Doc
	if err := json.Unmarshal(want, &wantDoc); err != nil {
		t.Fatal(err)
	}

	halted := t.TempDir()
	miniPlan(t, halted)
	st := runAll(t, halted, campaign.Options{Workers: 2, HaltAfter: 5})
	if !st.Halted || st.NewlyDone >= st.Total {
		t.Fatalf("halted run: %+v", st)
	}
	partial := docJSON(t, halted)
	var partialDoc Doc
	if err := json.Unmarshal(partial, &partialDoc); err != nil {
		t.Fatal(err)
	}
	if partialDoc.Complete {
		t.Fatalf("partial doc claims completeness at %d/%d jobs", partialDoc.DoneJobs, partialDoc.TotalJobs)
	}
	complete := 0
	for i := range partialDoc.Cells {
		if partialDoc.Cells[i].N != plan.Sites {
			continue
		}
		complete++
		got, _ := json.Marshal(partialDoc.Cells[i])
		wantCell, _ := json.Marshal(wantDoc.Cells[i])
		if !bytes.Equal(got, wantCell) {
			t.Errorf("completed cell %d differs between partial and uninterrupted analyze:\n%s\nvs\n%s",
				i, got, wantCell)
		}
	}
	if complete == 0 {
		t.Log("no cell completed before the halt; cell-level check vacuous this run")
	}

	runAll(t, halted, campaign.Options{Workers: 1})
	if got := docJSON(t, halted); !bytes.Equal(got, want) {
		t.Errorf("resumed analyze differs from uninterrupted run:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestMultiDirMatchesSingle splits a store's shard files across two
// directories and analyzes the pair: the merged document must be
// byte-identical to the single store's — the report fold's distributed
// determinism contract, carried to the deep read side.
func TestMultiDirMatchesSingle(t *testing.T) {
	whole := t.TempDir()
	miniPlan(t, whole)
	runAll(t, whole, campaign.Options{Workers: 1})
	want := docJSON(t, whole)

	partA, partB := t.TempDir(), t.TempDir()
	miniPlan(t, partA)
	miniPlan(t, partB)
	shards, err := filepath.Glob(filepath.Join(whole, "shards", "shard-*.jsonl"))
	if err != nil || len(shards) < 2 {
		t.Fatalf("want >=2 shard files, got %v (err %v)", shards, err)
	}
	for i, src := range shards {
		dst := partA
		if i%2 == 1 {
			dst = partB
		}
		b, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dst, "shards"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, "shards", filepath.Base(src)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := docJSON(t, partA, partB); !bytes.Equal(got, want) {
		t.Errorf("split-store analyze differs from single store:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// spanPlan is a two-cell plan (clean and lossy, so Doc builds a confusion
// matrix) of sites sites per cell.
func spanPlan(t *testing.T, sites, shardJobs int) *campaign.Plan {
	t.Helper()
	plan, err := campaign.NewPlan("spans", []population.Band{population.Rank1M},
		[]core.Stage{core.StageBase}, []string{"", "lossy"}, sites, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan.ShardJobs = shardJobs
	return plan
}

// Partials of arbitrary, interleaved site spans merge into each other to
// exactly what folding them, in the same order, into a whole-plan
// NewAnalysis gives: every site's verdict and the rendered document.
func TestMergeOfAnySpansEqualsFullFold(t *testing.T) {
	plan := spanPlan(t, 50, 7)
	rng := rand.New(rand.NewSource(1))
	verdicts := []string{"Stopped", "NoStop", "Unavailable"}
	groups := make([][]campaign.Record, 5)
	for j := 0; j < plan.Jobs(); j++ {
		if rng.Intn(10) < 3 {
			continue // never measured: SiteMissing
		}
		rec := *fuzzShardRecord(j)
		rec.Verdict = verdicts[rng.Intn(len(verdicts))]
		g := rng.Intn(len(groups))
		groups[g] = append(groups[g], rec)
	}
	partials := func() []*Analysis {
		var out []*Analysis
		for _, g := range groups {
			out = append(out, AnalyzeShard(plan, append([]campaign.Record(nil), g...)))
		}
		return out
	}

	want := NewAnalysis(plan)
	for _, p := range partials() {
		want.Merge(p)
	}
	ps := partials()
	got := ps[0]
	for _, p := range ps[1:] {
		got.Merge(p)
	}

	for c := range plan.Cells {
		for s := 0; s < plan.Sites; s++ {
			if g, w := got.Cells[c].site(s), want.Cells[c].site(s); g != w {
				t.Errorf("cell %d site %d: merged partials say %d, full fold %d", c, s, g, w)
			}
		}
	}
	gotDoc, err := got.Doc().JSON()
	if err != nil {
		t.Fatal(err)
	}
	wantDoc, err := want.Doc().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotDoc, wantDoc) {
		t.Errorf("merged partials render differently from the full fold:\n--- want\n%s\n--- got\n%s", wantDoc, gotDoc)
	}
}

// A shard partial of a 100k-site plan costs O(ShardJobs) bytes, not
// O(Sites) per cell — here for the shard that straddles the cell
// boundary, so both cells hold records.
func TestShardPartialSizedToShard(t *testing.T) {
	plan := spanPlan(t, 100_000, 512)
	k := plan.ShardOf(plan.Sites)
	lo, hi := plan.ShardRange(k)
	recs := make([]campaign.Record, 0, hi-lo)
	for j := lo; j < hi; j++ {
		recs = append(recs, *fuzzShardRecord(j))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a := AnalyzeShard(plan, recs)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*plan.ShardJobs); got > limit {
		t.Errorf("shard partial allocated %d bytes, want at most %d (a whole-plan verdict array is %d per cell)",
			got, limit, plan.Sites)
	}
	if spans := len(a.Cells[0].BySite) + len(a.Cells[1].BySite); spans != hi-lo {
		t.Errorf("partial verdict arrays span %d sites, want the shard's %d", spans, hi-lo)
	}
}
