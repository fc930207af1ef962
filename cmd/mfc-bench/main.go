// Command mfc-bench runs the repo's figure/table benchmarks in-process and
// writes a machine-readable BENCH_results.json, so the performance
// trajectory (ns/op, allocs/op, and the headline experiment metrics) is
// tracked across PRs. EXPERIMENTS.md records the expected values.
//
// Usage:
//
//	mfc-bench                 # full set -> BENCH_results.json
//	mfc-bench -short          # skip the slow population benchmarks
//	mfc-bench -out results.json
//	mfc-bench -against BENCH_results.json -tolerance 0.25
//	                          # trend check: fail if any benchmark regressed
//	                          # >25% in ns/op or allocs/op vs the baseline
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"mfc"
	"mfc/internal/analyze"
	"mfc/internal/experiments"
	"mfc/internal/obs"
	"mfc/internal/websim"
)

// bench is one named benchmark: fn runs the workload b.N times and may
// report custom metrics.
type bench struct {
	name string
	slow bool // excluded under -short
	fn   func(b *testing.B)
}

func catalog() []bench {
	return []bench{
		{"SimulatedExperiment", false, func(b *testing.B) {
			cfg := mfc.DefaultConfig()
			cfg.MaxCrowd = 50
			for i := 0; i < b.N; i++ {
				if _, err := mfc.Run(context.Background(), mfc.SimTarget{
					Server: mfc.PresetQTNP(), Site: mfc.PresetQTSite(7), Clients: 65, Seed: int64(i + 1),
				}, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"Figure3Synchronization", false, func(b *testing.B) {
			var spread90 time.Duration
			for i := 0; i < b.N; i++ {
				r, err := experiments.Figure3(int64(i + 1))
				if err != nil {
					b.Fatal(err)
				}
				spread90 = r.Spread90
			}
			b.ReportMetric(float64(spread90)/1e6, "spread90-ms")
		}},
		{"Figure4LinearTracking", false, func(b *testing.B) {
			var meanErr time.Duration
			for i := 0; i < b.N; i++ {
				r, err := experiments.Figure4(websim.LinearModel{Slope: 5 * time.Millisecond}, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				meanErr = r.MeanAbsErr
			}
			b.ReportMetric(float64(meanErr)/1e6, "track-err-ms")
		}},
		{"Table1QTNP", false, func(b *testing.B) {
			var baseStop, queryStop int
			for i := 0; i < b.N; i++ {
				r, err := experiments.Table1()
				if err != nil {
					b.Fatal(err)
				}
				baseStop, queryStop = r.Rows[0].BaseStop, r.Rows[0].QueryStop
			}
			b.ReportMetric(float64(baseStop), "base-stop")
			b.ReportMetric(float64(queryStop), "query-stop")
		}},
		{"Table3Univ3", false, func(b *testing.B) {
			var query int
			for i := 0; i < b.N; i++ {
				r, err := experiments.Table3Univ3()
				if err != nil {
					b.Fatal(err)
				}
				query = r.Rows[0].QueryStop
			}
			b.ReportMetric(float64(query), "query-stop-reqs")
		}},
		{"Figure7BaseByRank", true, func(b *testing.B) {
			var top, bottom float64
			for i := 0; i < b.N; i++ {
				r, err := experiments.Figure7(int64(i + 99))
				if err != nil {
					b.Fatal(err)
				}
				top = r.Bands[0].StoppedFraction()
				bottom = r.Bands[3].StoppedFraction()
			}
			b.ReportMetric(top*100, "top-stopped-pct")
			b.ReportMetric(bottom*100, "bottom-stopped-pct")
		}},
		{"Table5Phishing", true, func(b *testing.B) {
			var noStop float64
			for i := 0; i < b.N; i++ {
				r, err := experiments.Table5(int64(i + 99))
				if err != nil {
					b.Fatal(err)
				}
				noStop = r.Hist.Fraction(4)
			}
			b.ReportMetric(noStop*100, "nostop-pct")
		}},
		{"AnalyzeStore", false, func(b *testing.B) {
			dir, err := os.MkdirTemp("", "mfc-bench-analyze-*")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			if _, err := analyze.BenchStore(dir, 512); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var done int
			for i := 0; i < b.N; i++ {
				a, err := analyze.Compute([]string{dir})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := a.Doc().JSON(); err != nil {
					b.Fatal(err)
				}
				done = a.Done
			}
			b.ReportMetric(float64(done), "jobs-analyzed")
		}},
		{"SpanRecord", false, func(b *testing.B) {
			// The wall-clock tracing hot path: one Start/End pair with the
			// attrs a sealed shard carries. The point of the baseline is
			// allocs_per_op staying at 0 — ring slots and attr storage are
			// reused in place, so week-long campaigns trace for free.
			rec := obs.NewSpanRecorder("bench", 4096)
			attrs := []obs.SpanAttr{obs.A("sealed", "true"), obs.A("jobs", "8")}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Start("job", "job", i&7, 0).End(attrs...)
			}
		}},
		{"PredictiveValidation", true, func(b *testing.B) {
			var mfcStop int
			for i := 0; i < b.N; i++ {
				r, err := experiments.PredictiveValidation(int64(i + 21))
				if err != nil {
					b.Fatal(err)
				}
				mfcStop = r.Rows[1].MFCStop
			}
			b.ReportMetric(float64(mfcStop), "qtnp-mfc-stop")
		}},
	}
}

// result is one benchmark's row in BENCH_results.json.
type result struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	When       string   `json:"when"`
	Results    []result `json:"results"`
}

// checkTrend compares the fresh results against a committed baseline and
// returns one line per regression beyond the tolerance. ns/op catches raw
// slowdowns but is only meaningful against a baseline from comparable
// hardware; allocs/op is machine-independent and catches allocation
// regressions exactly (CI gates on allocs alone for that reason — see
// -check). Only benchmarks present in both reports are compared, so
// -short runs check against a full baseline fine.
func checkTrend(baseline report, fresh []result, tolerance float64, checkNs, checkAllocs bool) []string {
	base := make(map[string]result, len(baseline.Results))
	for _, r := range baseline.Results {
		base[r.Name] = r
	}
	var regressions []string
	for _, r := range fresh {
		b, ok := base[r.Name]
		if !ok {
			continue
		}
		if checkNs && b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*(1+tolerance) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %.2f ms/op vs baseline %.2f ms/op (+%.0f%%)",
				r.Name, r.NsPerOp/1e6, b.NsPerOp/1e6, 100*(r.NsPerOp/b.NsPerOp-1)))
		}
		if checkAllocs && b.AllocsPerOp > 0 && float64(r.AllocsPerOp) > float64(b.AllocsPerOp)*(1+tolerance) {
			regressions = append(regressions, fmt.Sprintf(
				"%s: %d allocs/op vs baseline %d (+%.0f%%)",
				r.Name, r.AllocsPerOp, b.AllocsPerOp,
				100*(float64(r.AllocsPerOp)/float64(b.AllocsPerOp)-1)))
		}
	}
	return regressions
}

func main() {
	var (
		out       = flag.String("out", "BENCH_results.json", "output path")
		short     = flag.Bool("short", false, "skip the slow population benchmarks")
		against   = flag.String("against", "", "baseline BENCH_results.json to trend-check against")
		tolerance = flag.Float64("tolerance", 0.25, "allowed fractional regression for -against")
		check     = flag.String("check", "ns,allocs", "metrics -against compares: ns, allocs, or ns,allocs (use allocs alone when the baseline is from different hardware)")
	)
	flag.Parse()
	checkNs := strings.Contains(*check, "ns")
	checkAllocs := strings.Contains(*check, "allocs")
	if *against != "" && !checkNs && !checkAllocs {
		log.Fatalf("-check %q selects no metrics (want ns, allocs, or ns,allocs)", *check)
	}

	rep := report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		When:       time.Now().UTC().Format(time.RFC3339),
	}
	for _, bm := range catalog() {
		if *short && bm.slow {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s...\n", bm.name)
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			bm.fn(b)
		})
		if br.N == 0 {
			// testing.Benchmark returns a zero result when the function
			// called b.Fatal; a zero row would record a broken experiment
			// as an infinitely fast one.
			log.Fatalf("%s: benchmark failed", bm.name)
		}
		res := result{
			Name:        bm.name,
			Iterations:  br.N,
			NsPerOp:     float64(br.NsPerOp()),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		}
		if len(br.Extra) > 0 {
			res.Metrics = map[string]float64{}
			for k, v := range br.Extra {
				res.Metrics[k] = v
			}
		}
		rep.Results = append(rep.Results, res)
		fmt.Fprintf(os.Stderr, "  %d iters, %.2f ms/op, %d allocs/op\n",
			res.Iterations, res.NsPerOp/1e6, res.AllocsPerOp)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", *out, len(rep.Results))

	if *against != "" {
		raw, err := os.ReadFile(*against)
		if err != nil {
			log.Fatalf("trend check: %v", err)
		}
		var baseline report
		if err := json.Unmarshal(raw, &baseline); err != nil {
			log.Fatalf("trend check: corrupt baseline %s: %v", *against, err)
		}
		if regressions := checkTrend(baseline, rep.Results, *tolerance, checkNs, checkAllocs); len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "REGRESSIONS vs %s (tolerance %.0f%%):\n", *against, *tolerance*100)
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trend check vs %s passed (tolerance %.0f%%)\n", *against, *tolerance*100)
	}
}
