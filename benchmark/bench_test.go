package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mfc/internal/campaign"
)

// TestMain lets the test binary stand in for the benchmark binary when
// fleet-file re-executes itself as a worker process.
func TestMain(m *testing.M) {
	if spec := os.Getenv(workerEnv); spec != "" {
		os.Exit(workerMain(spec))
	}
	os.Exit(m.Run())
}

// metricNameRE is the contract's rule for a name.
var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// The drift test: what BENCHMARK.json declares is what the code declares.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if got := (metricSpec{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, code %+v", i, got, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range b.PerLayer {
		if got := (metricSpec{Name: m.Name, Unit: m.Unit, Better: m.Better}); got != perLayer[i] {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, code %+v", i, got, perLayer[i])
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !metricNameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, layer := range traceLayers {
		if !seen["trace.self_share."+layer] {
			t.Errorf("trace layer %q has no declared share metric", layer)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default -seconds is %d", b.RunSeconds, defaultSeconds)
	}
}

func shortConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: pinnedSeed, seconds: 1, short: true, trace: trace,
		workers: 2, dir: t.TempDir()}
}

// checkEmitted asserts a result carries exactly the declared metrics, each
// finite, and that its result line has exactly the contract's keys.
func checkEmitted(t *testing.T, res *workloadResult, specs []metricSpec, nonZero bool) {
	t.Helper()
	for _, s := range specs {
		m, ok := res.Metrics[s.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s was not emitted", res.Workload, s.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", res.Workload, s.Name, m.Value)
		case nonZero && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", res.Workload, s.Name, m.Value)
		case m.Unit != s.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", res.Workload, s.Name, m.Unit, s.Unit)
		}
	}
	if len(res.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics emitted, %d declared", res.Workload, len(res.Metrics), len(specs))
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(res.resultLine()), &line); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[key]; !ok {
			t.Errorf("result line lacks %q", key)
		}
	}
	if len(line) != 4 {
		t.Errorf("result line has %d keys, want exactly 4", len(line))
	}
}

// Every workload at smoke size, end to end: outputs correct (the pinned
// short digests hold), no job failed, every declared metric once.
func TestSmokeEndToEnd(t *testing.T) {
	for _, name := range workloadNames {
		res, err := runEndToEnd(context.Background(), shortConfig(t, name, false), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d problems=%v", name, res.Correct, res.Failed, res.Attempted, res.Problems)
		}
		if res.Attempted > 64 {
			t.Errorf("%s: smoke size attempted %d jobs, want at most 64", name, res.Attempted)
		}
		checkEmitted(t, res, endToEnd, true)
	}
}

// The traced pass at smoke size: the whole ladder once (it does not depend
// on the workload), then each workload's own span attribution.
func TestSmokeTraced(t *testing.T) {
	res, err := runTraced(context.Background(), shortConfig(t, wlRunClean, true), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, res, perLayer, false)

	for _, name := range workloadNames {
		cfg := shortConfig(t, name, true)
		cfg.noLadder = true
		res, err := runTraced(context.Background(), cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkEmitted(t, res, traceOnly(), false)
		sum := 0.0
		for _, layer := range traceLayers {
			sum += res.Metrics["trace.self_share."+layer].Value
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: self shares sum to %v, want 1", name, sum)
		}
		if _, err := os.Stat(filepath.Join(cfg.dir, "out", "trace-"+name+".json")); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// A metric set refuses what would make a run malformed.
func TestMetricSetRejectsMalformed(t *testing.T) {
	set := newMetricSet([]metricSpec{{Name: "a", Unit: "s"}, {Name: "b", Unit: "s"}})
	set.value("a", 1)
	set.value("a", 2)          // twice
	set.value("c", 1)          // undeclared
	set.value("b", math.NaN()) // not finite, so b is also never emitted
	err := set.finish()
	if err == nil {
		t.Fatal("finish accepted a malformed set")
	}
	for _, want := range []string{"a emitted twice", "c is not declared", "b is not finite", "b was not emitted"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
}

// The quartiles are Python's statistics.quantiles(v, n=4): the driver
// computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	d := summarize([]float64{10, 1, 3, 7, 5, 9, 2, 8, 4, 6})
	if d.Q1 != 2.75 || d.Median != 5.5 || d.Q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", d.Q1, d.Median, d.Q3)
	}
	d = summarize([]float64{3, 1, 2})
	if d.Q1 != 1 || d.Median != 2 || d.Q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v, want 1 2 3", d.Q1, d.Median, d.Q3)
	}
	d = summarize(make([]float64, 200))
	if d.HighPct != 95 {
		t.Errorf("200 samples: highest percentile with ten samples beyond = p%v, want p95", d.HighPct)
	}
}

// The oracle: digests are pinned for every workload in both size classes,
// the two fleet transports pin the same bytes, and a changed report is
// named by its first differing line.
func TestExpectedDigests(t *testing.T) {
	f, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	if f.Seed != pinnedSeed {
		t.Errorf("expected.json pins seed %d, the default seed is %d", f.Seed, pinnedSeed)
	}
	for _, short := range []bool{false, true} {
		class := f.class(short)
		for _, name := range workloadNames {
			e, ok := class[name]
			if !ok || len(e.ReportSHA) != 64 || len(e.AnalyzeSHA) != 64 || len(e.Report) == 0 {
				t.Errorf("short=%v %s: not pinned (%+v)", short, name, e)
			}
		}
		if class[wlFleetFile].ReportSHA != class[wlFleetHTTP].ReportSHA || class[wlFleetFile].AnalyzeSHA != class[wlFleetHTTP].AnalyzeSHA {
			t.Errorf("short=%v: fleet-file and fleet-http pin different bytes", short)
		}
	}
	want := f.Short[wlRunClean]
	got := append([]string(nil), want.Report...)
	got[len(got)-1] += " changed"
	msg := checkExpected(f, true, wlRunClean, pinnedSeed, digest{sum: "x", text: strings.Join(got, "\n") + "\n"}, digest{sum: want.AnalyzeSHA})
	if !strings.Contains(msg, "first differing line") || !strings.Contains(msg, "changed") {
		t.Errorf("mismatch message %q does not name the differing line", msg)
	}
	if msg := checkExpected(f, true, wlRunClean, pinnedSeed+1, digest{sum: "x"}, digest{sum: "y"}); msg != "" {
		t.Errorf("another seed was checked against the pinned digests: %s", msg)
	}
}

// The store generator is a pure function of its seed and exercises the
// readers' dedupe and torn-line paths.
func TestGeneratedStore(t *testing.T) {
	read := func(dir string) []byte {
		var all []byte
		files, err := filepath.Glob(filepath.Join(dir, "shards", "*.jsonl"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no shards in %s: %v", dir, err)
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, b...)
		}
		return all
	}
	gen := func(seed int64) ([]byte, string) {
		dir := t.TempDir()
		if _, err := generateStore(dir, 2048, 64, seed, nil); err != nil {
			t.Fatal(err)
		}
		return read(dir), dir
	}
	a, dir := gen(7)
	b, _ := gen(7)
	c, _ := gen(8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed generated different stores")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds generated the same store")
	}
	lines := bytes.Count(a, []byte("\n"))
	if lines <= 2048 {
		t.Errorf("%d complete lines for 2048 jobs: no duplicate lines were written", lines)
	}
	if first, err := os.ReadFile(shardFile(dir, 0)); err != nil || first[len(first)-1] == '\n' {
		t.Errorf("shard 0 does not end in a torn line (%v)", err)
	}
	plan, err := campaign.LoadPlan(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := readOnce(dir, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.missing != 0 {
		t.Errorf("%d of %d generated jobs are unreadable", rep.missing, plan.Jobs())
	}
}

// -compare: the verdict ladder on one pair, failed jobs, and data missing
// from one side.
func TestCompareVerdicts(t *testing.T) {
	workload := func(name string, rate, q1, q3 float64, failed int) *workloadResult {
		w := &workloadResult{Workload: name, Seed: 7, Correct: failed == 0, Attempted: 100, Failed: failed,
			ReportSHA: "r", AnalyzeSHA: "a", Metrics: map[string]metricResult{}}
		for _, s := range endToEnd {
			w.Metrics[s.Name] = metricResult{Value: 10, Unit: s.Unit, Dist: &spread{N: 7, Median: 10, Q1: 10, Q3: 10}}
		}
		w.Metrics["jobs_per_s"] = metricResult{Value: rate, Unit: "jobs/s", Dist: &spread{N: 7, Median: rate, Q1: q1, Q3: q3}}
		return w
	}
	write := func(ws ...*workloadResult) string {
		path := filepath.Join(t.TempDir(), "r.json")
		if err := (&resultFile{Workloads: ws}).write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bound := 0.0
	for _, spec := range endToEnd {
		if spec.Name == "jobs_per_s" {
			bound = spec.Bound
		}
	}
	// The baseline: 1000 jobs/s, quartiles 980..1020, so its own resolution
	// is 4%.
	base := workload(wlRunClean, 1000, 980, 1020, 0)
	other := workload(wlRunChaos, 1000, 980, 1020, 0)
	at := func(rate float64) *workloadResult { return workload(wlRunClean, rate, rate-20, rate+20, 0) }
	for _, tc := range []struct {
		name    string
		a, b    string
		code    int
		summary string
		row     string // what the jobs_per_s row must say, "" = nothing to check
	}{
		{"same", write(base), write(at(1000)), 0, "0 out of bound, 0 worse, 0 unresolved", "ok"},
		{"inside the baseline's quartile range", write(base), write(at(970)), 0, "0 out of bound, 0 worse, 0 unresolved", "ok"},
		{"beyond it, quartile ranges overlapping", write(base), write(workload(wlRunClean, 955, 930, 990, 0)), 0, "0 out of bound, 0 worse, 1 unresolved", "unresolved"},
		{"a 15% regression inside the bound does not read ok", write(base), write(at(850)), 0, "0 out of bound, 1 worse, 0 unresolved", "WORSE"},
		{"one and a half bounds slower", write(base), write(at(1000 * (1 - 1.5*bound))), 1, "1 out of bound", "OUT OF BOUND"},
		{"faster is never worse", write(base), write(at(1500)), 0, "0 out of bound, 0 worse, 0 unresolved", "ok"},
		{"a failed job", write(base), write(workload(wlRunClean, 1000, 980, 1020, 1)), 1, "1 out of bound", ""},
		{"a workload missing from the candidate", write(base, other), write(at(1000)), 1, "1 out of bound", ""},
		{"a workload missing from the baseline", write(base), write(at(1000), other), 1, "1 out of bound", ""},
		{"nothing in common", write(base), write(other), 1, "3 out of bound", ""},
		{"two empty files", write(), write(), 1, "1 out of bound", ""},
	} {
		out := captureStdout(t, func() {
			if got := compareFiles(tc.a, tc.b); got != tc.code {
				t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.code)
			}
		})
		if !strings.Contains(out, "# "+tc.summary) {
			t.Errorf("%s: summary lacks %q:\n%s", tc.name, tc.summary, out)
		}
		for _, line := range strings.Split(out, "\n") {
			if tc.row != "" && strings.Contains(line, " jobs_per_s ") && !strings.HasSuffix(line, "  "+tc.row) {
				t.Errorf("%s: want verdict %q in %q", tc.name, tc.row, line)
			}
		}
	}
}

func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() { b, _ := io.ReadAll(r); done <- string(b) }()
	fn()
	os.Stdout = saved
	w.Close()
	return <-done
}

// A result file marks itself noisy by the issue's two rules.
func TestNoisyMarking(t *testing.T) {
	quiet := &resultFile{Env: envHeader{Workers: 2, Load1: 0.5}, Workloads: []*workloadResult{{
		Workload: wlRunClean, Metrics: map[string]metricResult{"jobs_per_s": {Value: 1, Dist: &spread{N: 7, IQRPercent: 3}}}}}}
	quiet.markNoisy()
	if quiet.Noisy {
		t.Errorf("a quiet run was marked noisy: %v", quiet.NoisyWhy)
	}
	loaded := &resultFile{Env: envHeader{Workers: 2, Load1: 1.5}}
	loaded.markNoisy()
	scattered := &resultFile{Env: envHeader{Workers: 2}, Workloads: []*workloadResult{{
		Workload: wlRunClean, Metrics: map[string]metricResult{"jobs_per_s": {Value: 1, Dist: &spread{N: 7, IQRPercent: 12}}}}}}
	scattered.markNoisy()
	if !loaded.Noisy || !scattered.Noisy || !scattered.Workloads[0].Noisy {
		t.Errorf("loaded=%v scattered=%v", loaded.Noisy, scattered.Noisy)
	}
}
