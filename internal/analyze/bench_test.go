package analyze

import (
	"fmt"
	"testing"
	"time"

	"mfc/internal/campaign"
	"mfc/internal/core"
	"mfc/internal/population"
)

// BenchmarkAnalyzeStore measures a full-store analytics scan over the
// canonical synthetic fixture (512 jobs, 4 shards, realistic Result
// payloads): decode, fold, merge, render to canonical JSON. The store
// scanner's scratch reuse keeps per-record allocations to the decoded
// Result trees themselves; the tracked twin is the benchmark ladder's
// analyze.compute_ms.
func BenchmarkAnalyzeStore(b *testing.B) {
	dir := b.TempDir()
	if _, err := BenchStore(dir, 512); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := Compute([]string{dir})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Doc().JSON(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchStore writes the canonical analytics benchmark fixture into dir: a
// synthetic single-band store of sites jobs (ShardJobs 128) whose records
// carry realistic Result payloads — a ramp curve bending at a per-site
// knee plus a check phase — without paying for real measurements. It is
// BenchmarkAnalyzeStore's input.
func BenchStore(dir string, sites int) (*campaign.Plan, error) {
	plan, err := campaign.NewPlan("analyze-bench",
		[]population.Band{population.Rank1M}, []core.Stage{core.StageBase}, nil, sites, 7)
	if err != nil {
		return nil, err
	}
	plan.ShardJobs = 128
	if err := plan.Save(dir); err != nil {
		return nil, err
	}
	st, err := campaign.OpenStore(dir, plan.ShardJobs)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	for j := 0; j < plan.Jobs(); j++ {
		if err := st.Append(benchRecord(plan, j)); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// benchRecord synthesizes job j's record: sites stop at crowds spread
// deterministically over the ramp, a third never stop.
func benchRecord(plan *campaign.Plan, j int) *campaign.Record {
	site := fmt.Sprintf("%s-%05d", plan.Cells[plan.CellOf(j)].Band, plan.SiteOf(j))
	stop := 15 + (j%8)*5 // 15..50; j%3 == 0 sites never stop
	noStop := j%3 == 0
	rec := &campaign.Record{
		Job: j, Site: site, Band: plan.Cells[plan.CellOf(j)].Band,
		Stage: plan.Cells[plan.CellOf(j)].Stage,
		Result: &core.Result{Target: site, Stages: []*core.StageResult{{
			Stage: core.StageBase, Threshold: plan.Threshold(),
		}}},
	}
	sr := rec.Result.Stages[0]
	for crowd, idx := plan.MinClients, 0; crowd <= plan.MaxCrowd; crowd, idx = crowd+plan.Step, idx+1 {
		q := 20 * time.Millisecond
		if !noStop && crowd >= stop {
			q = time.Duration(crowd) * 4 * time.Millisecond
		}
		sr.Epochs = append(sr.Epochs, core.EpochResult{
			Index: idx, Kind: core.EpochRamp, Crowd: crowd,
			Scheduled: crowd, Received: crowd, Errors: crowd / 20,
			NormQuantile: q, NormMedian: q / 2, Exceeded: q > plan.Threshold(),
		})
		if !noStop && crowd >= stop {
			break
		}
	}
	if noStop {
		rec.Verdict, rec.Stop = "NoStop", 0
		sr.Verdict = core.VerdictNoStop
	} else {
		rec.Verdict, rec.Stop = "Stopped", stop
		sr.Verdict, sr.StoppingCrowd = core.VerdictStopped, stop
		for k := 0; k < 3; k++ {
			sr.Epochs = append(sr.Epochs, core.EpochResult{
				Index: len(sr.Epochs), Kind: core.EpochCheckMinus, Crowd: stop - plan.Step,
				Scheduled: stop, Received: stop, NormQuantile: 30 * time.Millisecond,
				NormMedian: 20 * time.Millisecond,
			})
		}
	}
	rec.Requests = sr.TotalRequests
	rec.SimElapsedNs = int64(len(sr.Epochs)) * int64(10*time.Second)
	return rec
}
