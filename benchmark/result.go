package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricSpec declares one metric: BENCHMARK.json lists exactly these, and
// bench_test.go fails when the two drift.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the baseline median it may worsen by
}

// endToEnd is what a user of a campaign sees. Measured with tracing off,
// every one of them on every workload.
//
// failed_ratio — the issue's eighth metric — is reported too, but as the
// result line's attempted/failed counts: its healthy value is exactly 0 and
// its bound is absolute, which a relative bound cannot express.
//
// The bounds are wider than the issue proposed (-10% jobs/s, +7% CPU, +15%
// RSS, +10% read side). A bound is one number per metric, so it has to hold
// on the noisiest workload, and on the 2-core reference box ten runs of the
// thin-job fleet workloads scatter by 7-11% (inter-quartile range over
// median) in jobs/s and CPU time against 3-6% for run-clean, and the box has
// minutes-long episodes in which everything runs 25-35% slower, which lift
// the read-side spreads to 12% when several of ten runs meet one. Every
// time-based bound is therefore the contract's maximum; README.md has the
// tables. The bound is only the outer fence: -compare also holds every pair
// against the baseline's own inter-quartile range (compare.go).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "jobs/s", "higher", 0.25},
	{"cpu_s_per_kjob", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"resume_scan_ms", "ms", "lower", 0.25},
	{"report_ms", "ms", "lower", 0.25},
	{"analyze_ms", "ms", "lower", 0.25},
}

// metricResult is one emitted metric: the value an outside harness reads
// (a median, or a count) plus the spread behind it.
type metricResult struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Dist  *spread `json:"dist,omitempty"`
}

// metricSet collects a run's metrics, refusing duplicates, undeclared names
// and non-finite values at the moment they are emitted — a malformed run
// fails instead of printing a hole.
type metricSet struct {
	specs map[string]metricSpec
	order []string
	m     map[string]metricResult
	errs  []string
}

func newMetricSet(specs []metricSpec) *metricSet {
	set := &metricSet{specs: make(map[string]metricSpec), m: make(map[string]metricResult)}
	for _, s := range specs {
		set.specs[s.Name] = s
		set.order = append(set.order, s.Name)
	}
	return set
}

// value records a single number (a count, a ratio, a one-shot time).
func (set *metricSet) value(name string, v float64) { set.put(name, v, nil) }

// samples records the median of samples with its spread.
func (set *metricSet) samples(name string, samples []float64) {
	if len(samples) == 0 {
		set.errs = append(set.errs, fmt.Sprintf("metric %s has no samples", name))
		return
	}
	d := summarize(samples)
	set.put(name, d.Median, &d)
}

func (set *metricSet) put(name string, v float64, d *spread) {
	spec, ok := set.specs[name]
	switch {
	case !ok:
		set.errs = append(set.errs, fmt.Sprintf("metric %s is not declared", name))
	case math.IsNaN(v) || math.IsInf(v, 0):
		set.errs = append(set.errs, fmt.Sprintf("metric %s is not finite (%v)", name, v))
	default:
		if _, dup := set.m[name]; dup {
			set.errs = append(set.errs, fmt.Sprintf("metric %s emitted twice", name))
		}
		set.m[name] = metricResult{Value: v, Unit: spec.Unit, Dist: d}
	}
}

// finish reports everything wrong with the set: bad emissions and declared
// metrics nobody emitted.
func (set *metricSet) finish() error {
	errs := append([]string(nil), set.errs...)
	for _, name := range set.order {
		if _, ok := set.m[name]; !ok {
			errs = append(errs, fmt.Sprintf("metric %s was not emitted", name))
		}
	}
	if n := len(errs); n > 0 {
		if n > 5 {
			errs = append(errs[:5], fmt.Sprintf("and %d more", n-5))
		}
		return fmt.Errorf("malformed run: %s", strings.Join(errs, "; "))
	}
	return nil
}

// print writes one line per metric, in declaration order.
func (set *metricSet) print(w io.Writer, workload string) {
	for _, name := range set.order {
		r, ok := set.m[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-11s %-36s %14s %-7s", workload, name, fmtValue(r.Value), r.Unit)
		if d := r.Dist; d != nil {
			fmt.Fprintf(w, " q1=%s q3=%s n=%d iqr=%.1f%%", fmtValue(d.Q1), fmtValue(d.Q3), d.N, d.IQRPercent)
			if d.HighPct > 0 {
				fmt.Fprintf(w, " p%.4g=%s", d.HighPct, fmtValue(d.High))
			}
		}
		fmt.Fprintln(w)
	}
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// workloadResult is one workload's outcome in a result file.
type workloadResult struct {
	Workload    string                  `json:"workload"`
	Seed        int64                   `json:"seed"`
	Traced      bool                    `json:"traced"`
	Correct     bool                    `json:"correct"`
	Attempted   int                     `json:"attempted"`
	Failed      int                     `json:"failed"`
	FailedRatio float64                 `json:"failed_ratio"`
	Repetitions int                     `json:"repetitions"`
	ReportSHA   string                  `json:"report_sha256,omitempty"`
	AnalyzeSHA  string                  `json:"analyze_sha256,omitempty"`
	Report      []string                `json:"report,omitempty"` // the rendered campaign report
	Noisy       bool                    `json:"noisy,omitempty"`
	Problems    []string                `json:"problems,omitempty"`
	Metrics     map[string]metricResult `json:"metrics"`
}

// resultLine is the last line of standard output, the shape the driver's
// contract fixes: exactly these keys, metrics as {value, unit}.
func (r *workloadResult) resultLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv, len(r.Metrics))}
	for name, m := range r.Metrics {
		line.Metrics[name] = mv{m.Value, m.Unit}
	}
	b, _ := json.Marshal(line) // plain structs of finite floats cannot fail
	return string(b)
}

// envHeader describes where a result file was measured, so two files are
// only compared knowingly.
type envHeader struct {
	NProc      int     `json:"nproc"`
	Workers    int     `json:"workers"` // W
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Sizes      sizes   `json:"sizes"`
	Load1      float64 `json:"load1"` // 1-minute load average at start; -1 unknown
	When       string  `json:"when"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env       envHeader         `json:"env"`
	Noisy     bool              `json:"noisy"`
	NoisyWhy  []string          `json:"noisy_why,omitempty"`
	Workloads []*workloadResult `json:"workloads"`
}

func newEnvHeader(cfg config) envHeader {
	return envHeader{
		NProc: runtime.NumCPU(), Workers: cfg.workers, GoMaxProcs: cfg.workers,
		GoVersion: runtime.Version(), Commit: commitID(), Seed: cfg.seed,
		Seconds: cfg.seconds, Sizes: cfg.sizes(), Load1: loadAverage(),
		When: time.Now().UTC().Format(time.RFC3339),
	}
}

// commitID names the commit under test: git's answer, or "unknown" outside
// a repository.
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// noisyMetrics are the per-repetition metrics the noisy rule looks at.
var noisyMetrics = []string{"jobs_per_s", "cpu_s_per_kjob"}

// markNoisy applies the issue's rule: the machine was busy (load average
// above W/2) or a workload's own repetitions scattered by more than 10%.
func (f *resultFile) markNoisy() {
	if f.Env.Load1 > float64(f.Env.Workers)/2 {
		f.NoisyWhy = append(f.NoisyWhy, fmt.Sprintf("load average %.2f exceeds W/2 = %.1f", f.Env.Load1, float64(f.Env.Workers)/2))
	}
	for _, w := range f.Workloads {
		for _, name := range noisyMetrics {
			if d := w.Metrics[name].Dist; !w.Traced && d != nil && d.N >= 3 && d.IQRPercent > 10 {
				w.Noisy = true
				f.NoisyWhy = append(f.NoisyWhy, fmt.Sprintf("%s %s: repetition IQR/median %.1f%%", w.Workload, name, d.IQRPercent))
			}
		}
	}
	f.Noisy = len(f.NoisyWhy) > 0
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
