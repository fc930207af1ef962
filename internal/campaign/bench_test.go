package campaign

import (
	"testing"

	"mfc/internal/core"
	"mfc/internal/population"
)

// BenchmarkMeasureThin is one job of the fleet workloads' thin plan
// (Rank10K x Base, crowd 5 of 8 clients, one epoch): site sampling and the
// profiling crawl are a large share of it, so it prices both next to the
// coordinator's work. Jobs cycle over the first 1000 sites.
func BenchmarkMeasureThin(b *testing.B) {
	plan, err := NewPlan("bench-thin", []population.Band{population.Rank10K},
		[]core.Stage{core.StageBase}, nil, 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	plan.MaxCrowd, plan.MinClients, plan.Clients = 5, 5, 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rec := Measure(plan, i%plan.Jobs(), nil); rec.Err != "" {
			b.Fatalf("job %d: %s", rec.Job, rec.Err)
		}
	}
}
