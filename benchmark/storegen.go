package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"mfc/internal/campaign"
	"mfc/internal/core"
	"mfc/internal/population"
)

// generateStore writes the store-read fixture into dir: a synthetic
// two-cell store (one band, Base stage, clean and "lossy" so analyze builds
// a confusion matrix) of `records` jobs whose Result payloads look like
// real ones — a ramp bending at a per-site knee, then a check phase —
// without paying for a single simulation.
//
// The generator lives in the benchmark on purpose: analyze.BenchStore is
// under internal/, and an edit there must not be able to change this
// benchmark's inputs. Everything is drawn from seed: ramp length, knee and
// verdict per site, the completion order inside each shard, which lines are
// written twice (1%), and every 16th shard ends in a torn line, so the
// readers' sort, dedupe and skip paths all run. keep, when non-nil, leaves
// the other shards empty: a part-done store for the ladder's start-up scans.
func generateStore(dir string, records, shardJobs int, seed int64, keep func(shard int) bool) (*campaign.Plan, error) {
	plan, err := campaign.NewPlan("bench-store-read",
		[]population.Band{population.Rank1M}, []core.Stage{core.StageBase},
		[]string{"", "lossy"}, records/2, seed)
	if err != nil {
		return nil, err
	}
	plan.ShardJobs = shardJobs
	if err := plan.Save(dir); err != nil {
		return nil, err
	}
	st, err := campaign.OpenStore(dir, plan.ShardJobs)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < plan.Shards(); k++ {
		if keep != nil && !keep(k) {
			continue
		}
		lo := k * plan.ShardJobs
		hi := min(lo+plan.ShardJobs, plan.Jobs())
		order := rng.Perm(hi - lo)
		for _, off := range order {
			rec := syntheticRecord(plan, lo+off, rng)
			if err := st.Append(rec); err != nil {
				st.Close()
				return nil, err
			}
			if rng.Intn(100) == 0 { // a replayed upload: same record twice
				if err := st.Append(rec); err != nil {
					st.Close()
					return nil, err
				}
			}
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	// A kill mid-append leaves a partial last line; tear it from outside.
	for k := 0; k < plan.Shards(); k += 16 {
		if keep != nil && !keep(k) {
			continue
		}
		f, err := os.OpenFile(shardFile(dir, k), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		_, werr := fmt.Fprintf(f, `{"job":%d,"site":"torn-%d","band":"rank-100K-1M","stage":"Base","verdict":"Sto`, k*plan.ShardJobs, k)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return nil, werr
		}
	}
	return plan, nil
}

// shardFile is shard k's file in a store, the layout campaign.Store
// documents (dir/shards/shard-NNNN.jsonl).
func shardFile(dir string, k int) string {
	return filepath.Join(dir, "shards", fmt.Sprintf("shard-%04d.jsonl", k))
}

// syntheticRecord draws job j's record. The lossy cell stops earlier and
// more often than the clean one, so the baseline-vs-scenario confusion
// matrix has off-diagonal mass.
func syntheticRecord(plan *campaign.Plan, j int, rng *rand.Rand) *campaign.Record {
	cell := plan.Cells[plan.CellOf(j)]
	site := fmt.Sprintf("%s-%05d", cell.Band, plan.SiteOf(j))
	rec := &campaign.Record{Job: j, Site: site, Band: cell.Band, Stage: cell.Stage, Scenario: cell.Scenario}

	roll := rng.Intn(100)
	stopShare := 50
	if cell.Scenario != "" {
		stopShare = 65
	}
	if roll >= 95 { // the stage found no matching content
		rec.Verdict = core.VerdictUnavailable.String()
		rec.Result = &core.Result{Target: site, Scenario: cell.Scenario, Stages: []*core.StageResult{{
			Stage: core.StageBase, Verdict: core.VerdictUnavailable, Threshold: plan.Threshold(),
		}}}
		return rec
	}
	stopped := roll < stopShare
	knee := plan.Step * (2 + rng.Intn(plan.MaxCrowd/plan.Step-1)) // 10..MaxCrowd
	base := time.Duration(8+rng.Intn(40)) * time.Millisecond

	sr := &core.StageResult{Stage: core.StageBase, Threshold: plan.Threshold(), Quantile: 0.9}
	at := time.Duration(0)
	epoch := func(kind core.EpochKind, crowd int, q time.Duration) {
		at += 10 * time.Second
		sr.Epochs = append(sr.Epochs, core.EpochResult{
			Index: len(sr.Epochs), Kind: kind, Crowd: crowd,
			Scheduled: crowd, Received: crowd - rng.Intn(2), Errors: crowd / 20,
			NormQuantile: q, NormMedian: q * 2 / 3, Exceeded: q > plan.Threshold(),
			ArriveAt: at, Done: at + q + time.Second,
		})
		sr.TotalRequests += crowd
	}
	for crowd := plan.Step; crowd <= plan.MaxCrowd; crowd += plan.Step {
		q := base + time.Duration(rng.Intn(5))*time.Millisecond
		if stopped && crowd >= knee {
			q = plan.Threshold() + time.Duration(crowd)*2*time.Millisecond
		}
		epoch(core.EpochRamp, crowd, q)
		if stopped && crowd >= knee {
			break
		}
	}
	if stopped {
		over := plan.Threshold() + 20*time.Millisecond
		epoch(core.EpochCheckMinus, knee-1, base)
		epoch(core.EpochCheckRepeat, knee, over)
		epoch(core.EpochCheckPlus, knee+1, over)
		sr.Verdict, sr.StoppingCrowd, sr.FirstExceed = core.VerdictStopped, knee, knee
		rec.Stop, rec.FirstExceed = knee, knee
	}
	sr.Elapsed = at
	rec.Verdict = sr.Verdict.String()
	rec.Requests = sr.TotalRequests
	rec.SimElapsedNs = int64(sr.Elapsed)
	rec.Result = &core.Result{Target: site, Scenario: cell.Scenario, Stages: []*core.StageResult{sr}}
	return rec
}
