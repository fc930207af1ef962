package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mfc/internal/analyze"
	"mfc/internal/campaign"
	"mfc/internal/campaign/serve"
	"mfc/internal/clock"
	"mfc/internal/core"
	"mfc/internal/population"
)

// storeLines is one store's shard files: shard -> lines in file order. An
// int line is that job's record; a string line is written verbatim (no
// newline added), for planting torn and foreign lines.
type storeLines map[int][]any

// writeStore saves distPlan into a fresh dir and writes the shard files.
func writeStore(t *testing.T, recs map[int][]byte, lines storeLines) string {
	t.Helper()
	dir := t.TempDir()
	distPlan(t, dir)
	if err := os.Mkdir(filepath.Join(dir, "shards"), 0o755); err != nil {
		t.Fatal(err)
	}
	for k, ls := range lines {
		var buf bytes.Buffer
		for _, l := range ls {
			switch l := l.(type) {
			case int:
				buf.Write(recs[l])
			case string:
				buf.WriteString(l)
			}
		}
		path := filepath.Join(dir, "shards", fmt.Sprintf("shard-%04d.jsonl", k))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// readFolds is everything the read side says about a set of stores.
type readFolds struct {
	report, analysis []byte
	done             []bool
	skipped          campaign.Skipped
}

func foldAll(t *testing.T, dirs []string) readFolds {
	t.Helper()
	var f readFolds
	plan, sum, err := campaign.Summarize(dirs...)
	if err != nil {
		t.Fatal(err)
	}
	var rep bytes.Buffer
	if err := campaign.RenderReport(&rep, plan, sum); err != nil {
		t.Fatal(err)
	}
	f.report, f.skipped = rep.Bytes(), sum.Skipped

	a, err := analyze.Compute(dirs)
	if err != nil {
		t.Fatal(err)
	}
	if f.analysis, err = a.Doc().JSON(); err != nil {
		t.Fatal(err)
	}
	if a.Skipped != sum.Skipped || a.Done != sum.Done {
		t.Errorf("analyze saw done=%d %+v, report saw done=%d %+v", a.Done, a.Skipped, sum.Done, sum.Skipped)
	}

	r, err := campaign.OpenReader(dirs...)
	if err != nil {
		t.Fatal(err)
	}
	if f.done, err = r.Done(); err != nil {
		t.Fatal(err)
	}
	if n := plan.StartInfo(f.done).AlreadyDone; n != sum.Done {
		t.Errorf("done-set holds %d jobs, report says %d", n, sum.Done)
	}
	return f
}

// checkDoneSet asserts that the write side's views of one directory —
// Store.Completed, LeaseSource.Survey, the control plane's start-up scan —
// agree with the done-set want.
func checkDoneSet(t *testing.T, dir string, want []bool) {
	t.Helper()
	plan, err := campaign.LoadPlan(dir)
	if err != nil {
		t.Fatal(err)
	}
	info := plan.StartInfo(want)

	st, err := campaign.OpenStore(dir, plan.ShardJobs)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	completed, err := st.Completed(plan.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != info.AlreadyDone {
		t.Errorf("%s: Completed holds %d jobs, want %d", dir, len(completed), info.AlreadyDone)
	}
	for j, d := range want {
		if completed[j] != d {
			t.Errorf("%s: Completed[%d] = %v, want %v", dir, j, completed[j], d)
		}
	}

	src, err := campaign.OpenLeaseSource(clock.Real, dir, "surveyor", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got, err := src.Survey(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, info) {
		t.Errorf("%s: Survey = %+v, want %+v", dir, got, info)
	}

	srv, err := serve.New(dir, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if done := srv.Status().Done; done != info.AlreadyDone {
		t.Errorf("%s: control plane starts at %d done, want %d", dir, done, info.AlreadyDone)
	}
}

// Every reader of the store is a fold over campaign.Reader's job-ordered,
// deduplicated shard stream, so however one set of records is laid out —
// completion order, repeats, torn and foreign lines, missing shard files,
// one store or two — report, analytics, merge output and every done-set
// must come out the same, with the skip counters saying what was planted.
func TestStoreFoldConformance(t *testing.T) {
	plan := distPlan(t, t.TempDir())
	doneJobs := []int{0, 1, 2, 3, 5, 6, 9} // shards of 2: jobs 4, 7, 8 pending, shard 5 has no file
	recs := make(map[int][]byte)
	wantDone := make([]bool, plan.Jobs())
	for _, j := range doneJobs {
		line, err := json.Marshal(campaign.Measure(plan, j, nil))
		if err != nil {
			t.Fatal(err)
		}
		recs[j] = append(line, '\n')
		wantDone[j] = true
	}
	// A valid record of job 9 sitting in shard 1's file is foreign there.
	const outOfRange = `{"job":7000,"site":"nowhere","verdict":"Stopped"}` + "\n"
	const sealedTear = `{"job":2,"site":"rank-` + "\n"
	const tornTail = `{"job":7,"site":"rank-100K-1M-00001","band":"rank-1`

	layouts := []struct {
		name   string
		stores []storeLines
		want   campaign.Skipped
	}{
		{"one store in job order",
			[]storeLines{{0: {0, 1}, 1: {2, 3}, 2: {5}, 3: {6}, 4: {9}}},
			campaign.Skipped{}},
		{"one store: completion order, a repeat, foreign indexes, a sealed tear, a torn tail",
			[]storeLines{{0: {1, 0, 1}, 1: {3, outOfRange, sealedTear, 2, 9}, 2: {5}, 3: {6, tornTail}, 4: {9}}},
			campaign.Skipped{Torn: 2, Foreign: 2, Duplicate: 1}},
		{"two stores sharing jobs 1 and 2",
			[]storeLines{{0: {0, 1}, 1: {2}, 3: {6}}, {0: {1}, 1: {3, 2}, 2: {5}, 4: {9}}},
			campaign.Skipped{Duplicate: 2}},
	}

	// foldLayout writes one layout, checks everything that can be checked
	// on it alone, and returns its folds (source stores, then merge output)
	// and the merge's shard files.
	foldLayout := func(t *testing.T, stores []storeLines, want campaign.Skipped) ([2]readFolds, map[string][]byte) {
		var dirs []string
		for _, lines := range stores {
			dirs = append(dirs, writeStore(t, recs, lines))
		}
		got := foldAll(t, dirs)
		if got.skipped != want {
			t.Errorf("skipped = %+v, want %+v", got.skipped, want)
		}
		if !reflect.DeepEqual(got.done, wantDone) {
			t.Errorf("done-set = %v, want %v", got.done, wantDone)
		}
		if len(dirs) == 1 {
			checkDoneSet(t, dirs[0], wantDone)
		}

		out := filepath.Join(t.TempDir(), "merged")
		if err := Merge(dirs, out); err != nil {
			t.Fatal(err)
		}
		checkDoneSet(t, out, wantDone)
		merged := foldAll(t, []string{out})
		if merged.skipped != (campaign.Skipped{}) {
			t.Errorf("merged store still has skipped lines: %+v", merged.skipped)
		}
		shards := make(map[string][]byte)
		files, _ := filepath.Glob(filepath.Join(out, "shards", "*"))
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			shards[filepath.Base(f)] = data
		}
		return [2]readFolds{got, merged}, shards
	}

	ref, refShards := foldLayout(t, layouts[0].stores, layouts[0].want)
	for _, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) {
			folds, shards := foldLayout(t, lay.stores, lay.want)
			for _, f := range folds {
				if !bytes.Equal(f.report, ref[0].report) {
					t.Errorf("report differs from the job-ordered store's:\n--- want\n%s\n--- got\n%s", ref[0].report, f.report)
				}
				if !bytes.Equal(f.analysis, ref[0].analysis) {
					t.Errorf("analyze JSON differs from the job-ordered store's")
				}
			}
			if !reflect.DeepEqual(shards, refShards) {
				t.Errorf("merged shard files differ from the job-ordered store's merge")
			}
		})
	}

	t.Run("a second dir with a different plan is refused", func(t *testing.T) {
		dir := writeStore(t, recs, layouts[0].stores[0])
		other := t.TempDir()
		p, err := campaign.NewPlan("another-plan", []population.Band{population.Rank1M},
			[]core.Stage{core.StageBase}, nil, 12, 99)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Save(other); err != nil {
			t.Fatal(err)
		}
		dirs := []string{dir, other}
		_, _, errReport := campaign.Summarize(dirs...)
		_, errAnalyze := analyze.Compute(dirs)
		errMerge := Merge(dirs, filepath.Join(t.TempDir(), "merged"))
		if errReport == nil || errAnalyze == nil || errMerge == nil {
			t.Fatalf("plan mismatch allowed: report %v, analyze %v, merge %v", errReport, errAnalyze, errMerge)
		}
		if errAnalyze.Error() != errReport.Error() || errMerge.Error() != errReport.Error() {
			t.Errorf("three error texts for one rule:\nreport:  %v\nanalyze: %v\nmerge:   %v", errReport, errAnalyze, errMerge)
		}
	})
}

// Reading must not write: report and analyze over a planned-but-unstarted
// directory succeed with nothing done and leave it exactly as it was.
func TestReadsLeaveThePlannedDirUntouched(t *testing.T) {
	dir := t.TempDir()
	distPlan(t, dir)
	listing := func() []string {
		var names []string
		filepath.WalkDir(dir, func(path string, _ os.DirEntry, _ error) error {
			names = append(names, path)
			return nil
		})
		return names
	}
	before := listing()

	_, sum, err := campaign.Summarize(dir)
	if err != nil || sum.Done != 0 {
		t.Errorf("Summarize of a plan-only dir: done=%v err=%v", sum, err)
	}
	a, err := analyze.Compute([]string{dir})
	if err != nil || a.Done != 0 {
		t.Errorf("Compute of a plan-only dir: %+v err=%v", a, err)
	}
	if after := listing(); !reflect.DeepEqual(after, before) {
		t.Errorf("reading changed the directory:\nbefore %v\nafter  %v", before, after)
	}
}
