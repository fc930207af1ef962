package mfc_test

// The benchmark harness: one testing.B per table and figure of the paper's
// evaluation (plus the DESIGN.md ablations). Each benchmark regenerates its
// experiment end to end on the simulation substrate and reports the
// headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reprints the paper's result shapes alongside the cost of producing them.
// EXPERIMENTS.md records the expected values.

import (
	"context"
	"testing"
	"time"

	"mfc"
	"mfc/internal/experiments"
	"mfc/internal/obs"
	"mfc/internal/websim"
)

func BenchmarkFigure3Synchronization(b *testing.B) {
	var spread70, spread90 time.Duration
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure3(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		spread70, spread90 = r.Spread70, r.Spread90
	}
	b.ReportMetric(float64(spread70)/1e6, "spread70-ms")
	b.ReportMetric(float64(spread90)/1e6, "spread90-ms")
}

func BenchmarkFigure4LinearTracking(b *testing.B) {
	var meanErr time.Duration
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure4(websim.LinearModel{Slope: 5 * time.Millisecond}, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		meanErr = r.MeanAbsErr
	}
	b.ReportMetric(float64(meanErr)/1e6, "track-err-ms")
}

func BenchmarkFigure4ExponentialTracking(b *testing.B) {
	var meanErr time.Duration
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure4(websim.ExponentialModel{Unit: 15 * time.Millisecond, Doubling: 10}, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		meanErr = r.MeanAbsErr
	}
	b.ReportMetric(float64(meanErr)/1e6, "track-err-ms")
}

func BenchmarkFigure5LargeObject(b *testing.B) {
	var at50 time.Duration
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure5(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		at50 = r.Points[len(r.Points)-1].MedianResp
	}
	b.ReportMetric(float64(at50)/1e6, "median-at-50-ms")
}

func BenchmarkFigure6SmallQueryFCGI(b *testing.B) {
	var fcgiResp, mongrelResp time.Duration
	var peakMemMB float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure6(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		fcgiResp = r.FastCGI[len(r.FastCGI)-1].MedianResp
		mongrelResp = r.Mongrel[len(r.Mongrel)-1].MedianResp
		peakMemMB = r.FastCGI[len(r.FastCGI)-1].MemMB
	}
	b.ReportMetric(float64(fcgiResp)/1e6, "fcgi-at-50-ms")
	b.ReportMetric(float64(mongrelResp)/1e6, "mongrel-at-50-ms")
	b.ReportMetric(peakMemMB, "fcgi-peak-MB")
}

func BenchmarkTable1QTNP(b *testing.B) {
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
}

func BenchmarkTable2QTPSpread(b *testing.B) {
	var maxIncrease time.Duration
	var worstSpread float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		maxIncrease = r.MaxMedianIncrease
		worstSpread = 0
		for _, row := range r.Rows {
			if row.Spread90s > worstSpread {
				worstSpread = row.Spread90s
			}
		}
	}
	b.ReportMetric(float64(maxIncrease)/1e6, "max-median-incr-ms")
	b.ReportMetric(worstSpread, "worst-spread90-s")
}

func BenchmarkTable3Univ2(b *testing.B) {
	var base, query int
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table3Univ2()
		if err != nil {
			b.Fatal(err)
		}
		base, query = r.Rows[0].BaseStop, r.Rows[0].QueryStop
	}
	b.ReportMetric(float64(base), "base-stop-reqs")
	b.ReportMetric(float64(query), "query-stop-reqs")
}

func BenchmarkTable3Univ3(b *testing.B) {
	var query int
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table3Univ3()
		if err != nil {
			b.Fatal(err)
		}
		query = r.Rows[0].QueryStop
	}
	b.ReportMetric(float64(query), "query-stop-reqs")
}

func BenchmarkFigure7BaseByRank(b *testing.B) {
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
}

func BenchmarkFigure8QueryByRank(b *testing.B) {
	var top, bottom float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8(int64(i + 99))
		if err != nil {
			b.Fatal(err)
		}
		top = r.Bands[0].StoppedFraction()
		bottom = r.Bands[3].StoppedFraction()
	}
	b.ReportMetric(top*100, "top-stopped-pct")
	b.ReportMetric(bottom*100, "bottom-stopped-pct")
}

func BenchmarkFigure9LargeByRank(b *testing.B) {
	var top, bottom float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure9(int64(i + 99))
		if err != nil {
			b.Fatal(err)
		}
		top = r.Bands[0].StoppedFraction()
		bottom = r.Bands[3].StoppedFraction()
	}
	b.ReportMetric(top*100, "top-stopped-pct")
	b.ReportMetric(bottom*100, "bottom-stopped-pct")
}

func BenchmarkTable4Startups(b *testing.B) {
	var weakBase, noStopBase float64
	for i := 0; i < b.N; i++ {
		base, _, err := experiments.Table4(int64(i + 99))
		if err != nil {
			b.Fatal(err)
		}
		weakBase = float64(base.Cell.Buckets[0]) / float64(base.Cell.Measured())
		noStopBase = 1 - base.Cell.StoppedFraction()
	}
	b.ReportMetric(weakBase*100, "weak-pct(paper-24)")
	b.ReportMetric(noStopBase*100, "nostop-pct(paper-58)")
}

func BenchmarkTable5Phishing(b *testing.B) {
	var noStop float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5(int64(i + 99))
		if err != nil {
			b.Fatal(err)
		}
		noStop = 1 - r.Cell.StoppedFraction()
	}
	b.ReportMetric(noStop*100, "nostop-pct(paper-50)")
}

func BenchmarkAblationCheckPhase(b *testing.B) {
	var with, sans int
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationCheckPhase(3)
		if err != nil {
			b.Fatal(err)
		}
		with, sans = r.FalseStopsWith, r.FalseStopsSans
	}
	b.ReportMetric(float64(with), "false-stops-with")
	b.ReportMetric(float64(sans), "false-stops-sans")
}

func BenchmarkAblationQuantile(b *testing.B) {
	var median, q90 int
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationQuantile(int64(i + 3))
		if err != nil {
			b.Fatal(err)
		}
		median, q90 = r.MedianStop, r.Q90Stop
	}
	b.ReportMetric(float64(median), "median-rule-stop")
	b.ReportMetric(float64(q90), "q90-rule-stop")
}

func BenchmarkAblationStep(b *testing.B) {
	var fineReqs, coarseReqs int
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationStep(int64(i + 6))
		if err != nil {
			b.Fatal(err)
		}
		fineReqs = r.Points[0].TotalRequests
		coarseReqs = r.Points[len(r.Points)-1].TotalRequests
	}
	b.ReportMetric(float64(fineReqs), "step2-requests")
	b.ReportMetric(float64(coarseReqs), "step15-requests")
}

func BenchmarkExtensionStaggered(b *testing.B) {
	var syncMed, staggeredMed time.Duration
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtensionStaggered(int64(i + 4))
		if err != nil {
			b.Fatal(err)
		}
		syncMed = r.Points[0].MaxMedian
		staggeredMed = r.Points[len(r.Points)-1].MaxMedian
	}
	b.ReportMetric(float64(syncMed)/1e6, "sync-max-median-ms")
	b.ReportMetric(float64(staggeredMed)/1e6, "staggered-max-median-ms")
}

func BenchmarkExtensionMultiRequest(b *testing.B) {
	var m1, m2 int
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExtensionMultiRequest(int64(i + 5))
		if err != nil {
			b.Fatal(err)
		}
		m1, m2 = r.Points[0].StopClients, r.Points[1].StopClients
	}
	b.ReportMetric(float64(m1), "m1-stop-clients")
	b.ReportMetric(float64(m2), "m2-stop-clients")
}

func BenchmarkExtensionMeasurers(b *testing.B) {
	var independent, shared time.Duration
	for i := 0; i < b.N; i++ {
		indep, err := experiments.ExtensionMeasurers(int64(i + 2))
		if err != nil {
			b.Fatal(err)
		}
		sh, err := experiments.ExtensionMeasurersShared(int64(i + 2))
		if err != nil {
			b.Fatal(err)
		}
		independent = indep.Final().QueryMeasurer
		shared = sh.Final().QueryMeasurer
	}
	b.ReportMetric(float64(independent)/1e6, "indep-query-ms")
	b.ReportMetric(float64(shared)/1e6, "shared-query-ms")
}

func BenchmarkPredictiveValidation(b *testing.B) {
	var mfcStop, actual int
	for i := 0; i < b.N; i++ {
		r, err := experiments.PredictiveValidation(int64(i + 21))
		if err != nil {
			b.Fatal(err)
		}
		mfcStop = r.Rows[1].MFCStop // qtnp
		actual = r.Rows[1].ActualPoint
	}
	b.ReportMetric(float64(mfcStop), "qtnp-mfc-stop")
	b.ReportMetric(float64(actual), "qtnp-actual-degradation")
}

func BenchmarkUseCaseCompareDeployments(b *testing.B) {
	var asIsQuery, biggerQuery int
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultCompareConfig()
		r, err := experiments.CompareDeployments(websim.QTSite(7), cfg, []experiments.Deployment{
			{Label: "as-is", Config: websim.QTNPConfig()},
			{Label: "bigger-pool", Config: func() websim.Config {
				c := websim.QTNPConfig()
				c.DBConns = 8
				return c
			}()},
		}, int64(i+11))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Stage.String() == "SmallQuery" {
				asIsQuery, biggerQuery = row.Stops[0], row.Stops[1]
			}
		}
	}
	b.ReportMetric(float64(asIsQuery), "asis-query-stop")
	b.ReportMetric(float64(biggerQuery), "bigger-pool-query-stop")
}

// BenchmarkSimulatedExperiment measures the raw cost of one full
// three-stage experiment on the simulator — the unit everything above is
// built from.
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
