package mfc_test

// The benchmark harness: BenchmarkExperiment regenerates every entry of
// experiments.Catalog end to end on the simulation substrate and reports
// its headline quantities as custom metrics, so
//
//	go test -bench Experiment -benchmem .
//
// reprints the paper's result shapes alongside the cost of producing them;
// EXPERIMENTS.md records the same numbers at the catalog's seeds. The
// benchmarks after it price the unit the experiments are built from.

import (
	"context"
	"testing"

	"mfc"
	"mfc/internal/experiments"
	"mfc/internal/obs"
)

// BenchmarkExperiment is the catalog as benchmarks: a sub-benchmark per id
// that runs the experiment end to end (iteration i at the entry's seed + i;
// fixed-seed entries repeat the same run) and reports the last run's
// Headline as custom metrics.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.Catalog {
		b.Run(e.ID, func(b *testing.B) {
			var r experiments.Report
			for i := 0; i < b.N; i++ {
				seed := e.Seed
				if seed != 0 {
					seed += int64(i)
				}
				var err error
				if r, err = e.Run(seed); err != nil {
					b.Fatal(err)
				}
			}
			for _, m := range r.Headline() {
				b.ReportMetric(m.Value, m.Name)
			}
		})
	}
}

// BenchmarkSimulatedExperiment measures the raw cost of one full
// three-stage experiment on the simulator — the unit every catalog entry
// is built from.
func BenchmarkSimulatedExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := simulatedExperiment(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioFlashCrowd is one campaign job of the chaos study's
// costliest cell: the benchmark ladder's scenario.run_us.flash-crowd
// target (see chaosSample), thousands of organic visitors around a Large
// Object stage.
func BenchmarkScenarioFlashCrowd(b *testing.B) {
	job := chaosSample(b, "flash-crowd")
	var k mfc.KernelStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k = job()
	}
	b.ReportMetric(float64(k.Handoffs), "handoffs")
	b.ReportMetric(float64(k.CalendarPeak), "calendar-peak")
}

func simulatedExperiment(seed int64, opts ...mfc.RunOption) error {
	cfg := mfc.DefaultConfig()
	cfg.MaxCrowd = 50
	_, err := mfc.Run(context.Background(), mfc.SimTarget{
		Server: mfc.PresetQTNP(), Site: mfc.PresetQTSite(7), Clients: 65, Seed: seed,
	}, cfg, opts...)
	return err
}

// TestAllocBudgetSimulatedExperiment is the hardware-independent half of
// BenchmarkSimulatedExperiment: allocations per experiment (5 145 over
// these seeds when the budget was set) must not creep past 5 600.
func TestAllocBudgetSimulatedExperiment(t *testing.T) {
	seed := int64(0)
	allocs := testing.AllocsPerRun(5, func() {
		seed++
		if err := simulatedExperiment(seed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5600 {
		t.Errorf("%.0f allocs per simulated experiment, budget 5600", allocs)
	}
}

// BenchmarkObserverOverhead is BenchmarkSimulatedExperiment with the obs
// event→metrics bridge attached — the marginal cost of running with
// -metrics on. Compare ns/op against BenchmarkSimulatedExperiment; the
// bridge is a handful of atomic adds per epoch and should stay within a
// few percent.
func BenchmarkObserverOverhead(b *testing.B) {
	observer := mfc.WithObserver(obs.NewRunMetrics(obs.NewRegistry()).Observer())
	for i := 0; i < b.N; i++ {
		if err := simulatedExperiment(int64(i+1), observer); err != nil {
			b.Fatal(err)
		}
	}
}
