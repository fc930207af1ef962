// Command benchmark is this repository's benchmark: five campaign workloads
// driven through the packages' exported functions only, seven end-to-end
// metrics measured with tracing off, and a per-layer ladder plus span
// attribution measured from outside in a separate traced pass. README.md
// explains each workload and which metric a layer is expected to move.
//
//	bash benchmark/run.sh                       every workload, end to end
//	bash benchmark/run.sh -trace 1              the ladder once, every workload's spans
//	bash benchmark/run.sh -workload run-clean   one workload in this process
//	bash benchmark/run.sh -selfcheck            two full sets, compared
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	if spec := os.Getenv(workerEnv); spec != "" {
		os.Exit(workerMain(spec))
	}
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		cfg       config
		trace     int
		compare   bool
		selfcheck bool
	)
	fs.StringVar(&cfg.workload, "workload", "", "run one workload in this process: "+strings.Join(workloadNames, ", ")+" (default: all, one child process each)")
	fs.Int64Var(&cfg.seed, "seed", pinnedSeed, "plan seed; the same seed gives the same inputs (digests are pinned for the default)")
	fs.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "how long each workload's timed phase measures")
	fs.BoolVar(&cfg.short, "short", false, "smoke size: at most 64 jobs per workload, one repetition")
	fs.IntVar(&trace, "trace", 0, "1 = traced pass: per-layer metrics and span attribution instead of the end-to-end metrics")
	fs.BoolVar(&cfg.noLadder, "no-ladder", false, "with -trace 1: only the workload's own trace.* metrics; the all-workloads run measures the ladder, which is the same for every workload, in its first child only")
	fs.StringVar(&cfg.dir, "dir", "", "the benchmark's directory (default: ./benchmark, else .)")
	fs.StringVar(&cfg.out, "out", "", "write a result file (environment header + every metric with its spread)")
	fs.BoolVar(&compare, "compare", false, "compare two result files: -compare a.json b.json")
	fs.BoolVar(&selfcheck, "selfcheck", false, "run the whole set twice and compare the two")
	fs.BoolVar(&cfg.updating, "update-expected", false, "re-pin expected.json from this run (benchmark-change-only action)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0
	cfg.workers = min(runtime.NumCPU(), 4)
	if cfg.dir == "" {
		cfg.dir = "."
		if st, err := os.Stat("benchmark/expected.json"); err == nil && !st.IsDir() {
			cfg.dir = "benchmark"
		}
	}
	abs, err := filepath.Abs(cfg.dir)
	if err != nil {
		return fail(err)
	}
	cfg.dir = abs

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch {
	case compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	case fs.NArg() != 0:
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	case selfcheck:
		return selfCheck(ctx, cfg)
	case cfg.workload != "":
		return runChild(ctx, cfg)
	}
	rf, code := runAll(ctx, cfg)
	if code != 0 {
		return code
	}
	if cfg.updating {
		if cfg.seed != pinnedSeed || cfg.trace {
			return fail(fmt.Errorf("-update-expected pins the untraced run at seed %d only", pinnedSeed))
		}
		if err := updateExpected(cfg.dir, cfg.short, rf.Workloads); err != nil {
			return fail(err)
		}
		fmt.Printf("# re-pinned %s (rebuild to embed it)\n", filepath.Join(cfg.dir, "expected.json"))
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// runChild measures one workload in this process and prints the contract's
// result line last. The exit code is non-zero only for a malformed run — a
// wrong output is a result (correct: false), not a crash.
func runChild(ctx context.Context, cfg config) int {
	if !slices.Contains(workloadNames, cfg.workload) {
		return fail(fmt.Errorf("unknown workload %q (known: %s)", cfg.workload, strings.Join(workloadNames, ", ")))
	}
	// The issue's load model: W measurement workers on W Ps. A child started
	// by runAll already has GOMAXPROCS=W in its environment.
	runtime.GOMAXPROCS(cfg.workers)

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# mfc benchmark: workload=%s seed=%d seconds=%g trace=%v short=%v W=%d nproc=%d %s load1=%.2f\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.short, cfg.workers, runtime.NumCPU(), runtime.Version(), loadAverage())

	var res *workloadResult
	var err error
	if cfg.trace {
		res, err = runTraced(ctx, cfg, out)
	} else {
		res, err = runEndToEnd(ctx, cfg, out)
	}
	if err != nil {
		out.Flush()
		return fail(fmt.Errorf("%s: %w", cfg.workload, err))
	}
	if cfg.out != "" {
		rf := &resultFile{Env: newEnvHeader(cfg), Workloads: []*workloadResult{res}}
		rf.markNoisy()
		if err := rf.write(cfg.out); err != nil {
			out.Flush()
			return fail(err)
		}
	}
	fmt.Fprintln(out, res.resultLine())
	return 0
}

// runAll measures every workload, each in a fresh process re-executed from
// this binary with GOMAXPROCS=W, so peak RSS, heap state and the runner's
// shared budget never leak from one workload into the next.
func runAll(ctx context.Context, cfg config) (*resultFile, int) {
	self, err := os.Executable()
	if err != nil {
		return nil, fail(err)
	}
	root, err := cfg.workRoot()
	if err != nil {
		return nil, fail(err)
	}
	rf := &resultFile{Env: newEnvHeader(cfg)}
	for i, name := range workloadNames {
		part := filepath.Join(root, fmt.Sprintf("result-%s-%d.json", name, os.Getpid()))
		args := []string{
			"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
			"-dir", cfg.dir, "-out", part,
		}
		if cfg.short {
			args = append(args, "-short")
		}
		if cfg.trace {
			args = append(args, "-trace", "1")
			if i > 0 {
				args = append(args, "-no-ladder")
			}
		}
		if cfg.updating {
			args = append(args, "-update-expected")
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", cfg.workers))
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		err := cmd.Run()
		child, rerr := readResultFile(part)
		os.Remove(part)
		if err != nil {
			return nil, fail(fmt.Errorf("workload %s: %w", name, err))
		}
		if rerr != nil {
			return nil, fail(rerr)
		}
		rf.Workloads = append(rf.Workloads, child.Workloads...)
	}
	rf.markNoisy()
	if rf.Noisy {
		fmt.Printf("# NOISY run: %s\n", strings.Join(rf.NoisyWhy, "; "))
	}
	if cfg.out != "" {
		if err := rf.write(cfg.out); err != nil {
			return nil, fail(err)
		}
	}
	for _, w := range rf.Workloads {
		if !w.Correct {
			return rf, fail(fmt.Errorf("workload %s produced wrong outputs: %s", w.Workload, strings.Join(w.Problems, "; ")))
		}
	}
	return rf, 0
}
