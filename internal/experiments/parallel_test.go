package experiments

import (
	"reflect"
	"testing"

	"mfc/internal/core"
)

// withParallelism runs fn with the package pool pinned to n workers.
func withParallelism(t *testing.T, n int, fn func()) {
	t.Helper()
	old := Parallelism
	Parallelism = n
	defer func() { Parallelism = old }()
	fn()
}

// The contract the whole refactor rests on: per-site seeds depend only on
// the site index, so the pool size must never change a result. Sequential
// (1 worker) and parallel (2, 8 workers) population runs must be
// byte-identical.
func TestPopulationParallelMatchesSequential(t *testing.T) {
	const seed = 77
	run := func(workers int) *PopulationResult {
		var r *PopulationResult
		var err error
		withParallelism(t, workers, func() {
			r, err = populationFigure(core.StageBase, [4]int{5, 4, 4, 5}, seed)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return r
	}
	sequential := run(1)
	for _, workers := range []int{2, 8} {
		parallel := run(workers)
		if !reflect.DeepEqual(sequential, parallel) {
			t.Errorf("workers=%d diverged from sequential:\nseq: %+v\npar: %+v",
				workers, sequential, parallel)
		}
	}
}

// The multi-run tables have the same invariance: each run derives its own
// seed, so rows cannot depend on scheduling.
func TestTable1ParallelMatchesSequential(t *testing.T) {
	run := func(workers int) *Table1Result {
		var r *Table1Result
		var err error
		withParallelism(t, workers, func() { r, err = Table1() })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return r
	}
	sequential := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(sequential, parallel) {
		t.Errorf("Table1 diverged:\nseq: %+v\npar: %+v", sequential, parallel)
	}
}

func TestAblationStepParallelMatchesSequential(t *testing.T) {
	run := func(workers int) *StepAblationResult {
		var r *StepAblationResult
		var err error
		withParallelism(t, workers, func() { r, err = AblationStep(6) })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return r
	}
	if a, b := run(1), run(4); !reflect.DeepEqual(a, b) {
		t.Errorf("AblationStep diverged:\nseq: %+v\npar: %+v", a, b)
	}
}
