package campaign

import (
	"runtime"
	"testing"

	"mfc/internal/core"
	"mfc/internal/population"
)

// thinPlan is the fleet workloads' thin plan over the first 1000 sites.
func thinPlan(tb testing.TB) *Plan {
	plan, err := NewPlan("bench-thin", []population.Band{population.Rank10K},
		[]core.Stage{core.StageBase}, nil, 1000, 1)
	if err != nil {
		tb.Fatal(err)
	}
	plan.MaxCrowd, plan.MinClients, plan.Clients = 5, 5, 8
	return plan
}

// runChaosPlan is the run-chaos workload's plan shape: the Large Object stage
// on Rank10K under four chaos presets, 200 sites per cell.
func runChaosPlan(tb testing.TB) *Plan {
	plan, err := NewPlan("bench-chaos", []population.Band{population.Rank10K},
		[]core.Stage{core.StageLargeObject}, []string{"lossy", "flaky-link", "flash-crowd", "waf-reject"}, 200, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// chaosJob is the i-th job of a chaos run: consecutive jobs take the cells
// in turn, so any b.N prices every preset.
func chaosJob(plan *Plan, i int) int {
	cells := len(plan.Cells)
	return i%cells*plan.Sites + i/cells%plan.Sites
}

// TestAllocBudgetMeasureThin is the hardware-independent half of
// BenchmarkMeasureThin: a thin job made 262 allocations and 105.0 KB while
// a generated site held its URLs in one string and a URL map, and 257 and
// 57.8 KB once it held columns and rendered URLs on demand; the budgets
// are those + 10 %.
func TestAllocBudgetMeasureThin(t *testing.T) {
	plan := thinPlan(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	job := 0
	allocs := testing.AllocsPerRun(100, func() {
		if rec := Measure(plan, job, nil); rec.Err != "" {
			t.Fatalf("job %d: %s", rec.Job, rec.Err)
		}
		job++
	})
	runtime.ReadMemStats(&after)
	if allocs > 283 {
		t.Errorf("%.0f allocs per thin job, budget 283", allocs)
	}
	if kb := float64(after.TotalAlloc-before.TotalAlloc) / float64(job) / 1000; kb > 64 {
		t.Errorf("%.1f KB allocated per thin job, budget 64", kb)
	}
}

// TestAllocBudgetMeasureChaos is the hardware-independent half of
// BenchmarkMeasureChaos: the first 41 chaos jobs made 2 450 allocations
// and 395.8 KB each on average while a generated site held its URLs in
// one string and a URL map, and 2 446 and 339.0 KB once it held columns;
// the budgets are those + 10 %.
func TestAllocBudgetMeasureChaos(t *testing.T) {
	plan := runChaosPlan(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	i := 0
	allocs := testing.AllocsPerRun(40, func() {
		if rec := Measure(plan, chaosJob(plan, i), nil); rec.Err != "" {
			t.Fatalf("job %d: %s", rec.Job, rec.Err)
		}
		i++
	})
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / float64(i) / 1000
	if allocs > 2691 {
		t.Errorf("%.0f allocs per chaos job, budget 2691", allocs)
	}
	if kb > 373 {
		t.Errorf("%.1f KB allocated per chaos job, budget 373", kb)
	}
}

// BenchmarkMeasureThin is one job of the fleet workloads' thin plan
// (Rank10K x Base, crowd 5 of 8 clients, one epoch): site sampling and the
// profiling crawl are a large share of it, so it prices both next to the
// coordinator's work. Jobs cycle over the first 1000 sites.
func BenchmarkMeasureThin(b *testing.B) {
	plan := thinPlan(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rec := Measure(plan, i%plan.Jobs(), nil); rec.Err != "" {
			b.Fatalf("job %d: %s", rec.Job, rec.Err)
		}
	}
}

// BenchmarkMeasureChaos is one job of the run-chaos plan shape: bandwidth-
// bound transfers under loss, link flaps and crowds, so link reallocation
// and the calendar carry most of it. Jobs cycle over every cell.
func BenchmarkMeasureChaos(b *testing.B) {
	plan := runChaosPlan(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rec := Measure(plan, chaosJob(plan, i), nil); rec.Err != "" {
			b.Fatalf("job %d: %s", rec.Job, rec.Err)
		}
	}
}
