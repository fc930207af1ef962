package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// compareFiles prints, for every (end-to-end metric, workload) pair of two
// result files — a the baseline, b the candidate — both medians with their
// quartiles, how far b's median is worse than a's, the metric's bound and
// the baseline's own resolution (its inter-quartile range over its median),
// and a verdict:
//
//	ok            b's median is no worse than a's by more than a's
//	              inter-quartile range: nothing these two runs can see
//	unresolved    worse by more than that, but the two quartile ranges still
//	              overlap: measure again (ten alternating pairs) before
//	              calling it either way
//	WORSE         worse by more than a's inter-quartile range and the
//	              quartile ranges are disjoint: a regression inside the bound
//	OUT OF BOUND  worse by more than the bound; the exit code is 1
//
// The bound in BENCHMARK.json is one number per metric and has to hold on
// the noisiest workload, so on a quiet one (run-clean: 3-6%) it alone would
// pass a 20% regression; the baseline's own spread is the finer ruler. A
// metric measured once per run (peak RSS) has no spread and only the bound.
//
// Failed jobs, differing digests, and a workload or metric present in only
// one file are out of bound whatever the medians.
func compareFiles(pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return fail(err)
	}
	for _, f := range []struct {
		path string
		rf   *resultFile
	}{{pathA, a}, {pathB, b}} {
		e := f.rf.Env
		fmt.Printf("# %s: commit %s, %s, nproc %d, W %d, seed %d, %gs, load1 %.2f\n",
			filepath.Base(f.path), e.Commit, e.GoVersion, e.NProc, e.Workers, e.Seed, e.Seconds, e.Load1)
		if f.rf.Noisy {
			fmt.Printf("# %s is marked NOISY: %s\n", filepath.Base(f.path), strings.Join(f.rf.NoisyWhy, "; "))
		}
	}
	if a.Env.Sizes != b.Env.Sizes || a.Env.Workers != b.Env.Workers {
		fmt.Println("# WARNING: the two files were measured at different sizes or worker counts")
	}

	inB := make(map[string]*workloadResult)
	for _, w := range b.Workloads {
		if !w.Traced {
			inB[w.Workload] = w
		}
	}
	pairs, bad, worseN, unresolved := 0, 0, 0, 0
	fmt.Printf("%-11s %-16s %13s %27s %13s %27s %9s %7s %7s  %s\n",
		"workload", "metric", "a.median", "a[q1..q3]", "b.median", "b[q1..q3]", "worse", "a.iqr", "bound", "verdict")
	for _, wa := range a.Workloads {
		if wa.Traced {
			continue
		}
		wb := inB[wa.Workload]
		if wb == nil {
			fmt.Printf("%-11s missing from b, %s\n", wa.Workload, pathB)
			bad++
			continue
		}
		delete(inB, wa.Workload)
		pairs++
		for _, spec := range endToEnd {
			ma, okA := wa.Metrics[spec.Name]
			mb, okB := wb.Metrics[spec.Name]
			if !okA || !okB {
				fmt.Printf("%-11s %-16s missing from one side\n", wa.Workload, spec.Name)
				bad++
				continue
			}
			worse := (mb.Value - ma.Value) / ma.Value
			if spec.Better == "higher" {
				worse = -worse
			}
			q1a, q3a := quartilesOf(ma)
			q1b, q3b := quartilesOf(mb)
			iqrA := (q3a - q1a) / ma.Value
			verdict := "ok"
			switch {
			case worse > spec.Bound:
				verdict = "OUT OF BOUND"
				bad++
			case ma.Dist == nil || worse <= iqrA:
			case max(q1a, q1b) <= min(q3a, q3b):
				verdict = "unresolved"
				unresolved++
			default:
				verdict = "WORSE"
				worseN++
			}
			fmt.Printf("%-11s %-16s %13s %27s %13s %27s %+8.1f%% %6.1f%% %6.0f%%  %s\n",
				wa.Workload, spec.Name, fmtValue(ma.Value), "["+fmtValue(q1a)+".."+fmtValue(q3a)+"]",
				fmtValue(mb.Value), "["+fmtValue(q1b)+".."+fmtValue(q3b)+"]", worse*100, iqrA*100, spec.Bound*100, verdict)
		}
		verdict := "ok"
		if wa.Failed > 0 || wb.Failed > 0 {
			verdict = "OUT OF BOUND"
			bad++
		}
		fmt.Printf("%-11s %-16s %13s %27s %13s %27s %9s %7s %7s  %s\n", wa.Workload, "failed_ratio",
			fmtValue(wa.FailedRatio), fmt.Sprintf("%d/%d", wa.Failed, wa.Attempted),
			fmtValue(wb.FailedRatio), fmt.Sprintf("%d/%d", wb.Failed, wb.Attempted), "", "", "0", verdict)
		if wa.Seed == wb.Seed && (wa.ReportSHA != wb.ReportSHA || wa.AnalyzeSHA != wb.AnalyzeSHA) {
			fmt.Printf("%-11s digests differ: report %s vs %s, analyze %s vs %s: %s\n", wa.Workload,
				short12(wa.ReportSHA), short12(wb.ReportSHA), short12(wa.AnalyzeSHA), short12(wb.AnalyzeSHA),
				firstDiff(wa.Report, wb.Report))
			bad++
		}
	}
	for _, w := range b.Workloads { // in file order
		if inB[w.Workload] == w {
			fmt.Printf("%-11s missing from a, %s\n", w.Workload, pathA)
			bad++
		}
	}
	if pairs == 0 {
		fmt.Println("no workload was measured end to end in both files")
		bad++
	}
	fmt.Printf("# %d out of bound, %d worse, %d unresolved\n", bad, worseN, unresolved)
	if bad > 0 {
		return 1
	}
	return 0
}

// quartilesOf returns a metric's quartiles; a single-valued metric (peak
// RSS) is its own quartiles.
func quartilesOf(m metricResult) (q1, q3 float64) {
	if m.Dist == nil {
		return m.Value, m.Value
	}
	return m.Dist.Q1, m.Dist.Q3
}

// selfCheck measures the whole set twice on this commit and compares the
// two: the benchmark's own bounds must hold between two runs of one binary
// before they can mean anything between two commits.
func selfCheck(ctx context.Context, cfg config) int {
	if err := os.MkdirAll(filepath.Join(cfg.dir, "out"), 0o755); err != nil {
		return fail(err)
	}
	var paths []string
	for _, side := range []string{"a", "b"} {
		c := cfg
		c.out = filepath.Join(cfg.dir, "out", "selfcheck-"+side+".json")
		fmt.Printf("# selfcheck: set %s\n", side)
		if _, code := runAll(ctx, c); code != 0 {
			return code
		}
		paths = append(paths, c.out)
	}
	return compareFiles(paths[0], paths[1])
}
