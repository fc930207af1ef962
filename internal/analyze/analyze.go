// Package analyze is the campaign engine's read side: streaming analytics
// over the sharded JSONL stores. Where the report fold keeps one
// CellSummary per cell, analyze mines the full Result payloads — per-epoch
// latency-quantile curves, response-time knees vs provisioning tier,
// verdict confusion matrices across scenario sweeps, and request/error
// rollups — while keeping the same determinism contract and memory bound:
// records fold in (shard, job) order with duplicates dropped, so a killed,
// resumed, or distributed campaign analyzes byte-identically to an
// uninterrupted one, and only one shard's records are resident at a time.
package analyze

import (
	"sort"

	"mfc/internal/campaign"
	"mfc/internal/core"
	"mfc/internal/stats"
)

// SiteMissing marks a site with no record yet in a per-site verdict array.
const SiteMissing = 0xFF

// CurvePoint is one ramp-crowd position on a cell's response curve,
// mergeable across shards and stores.
type CurvePoint struct {
	N int64 // ramp epochs folded in (one per measured site)
	// Quantile aggregates the detection quantile of normalized response
	// time (error-class floor applied), in seconds.
	Quantile stats.Running
	// Median aggregates the reference median (no error floor) — the
	// Figure 4/5/6 response curves — in seconds.
	Median stats.Running
	// Exceeded counts epochs whose detection quantile exceeded θ.
	Exceeded int64
	// Request rollups for this crowd size.
	Scheduled, Received, Errors int64
}

func (p *CurvePoint) add(e *core.EpochResult) {
	p.N++
	p.Quantile.Add(e.NormQuantile.Seconds())
	p.Median.Add(e.NormMedian.Seconds())
	if e.Exceeded {
		p.Exceeded++
	}
	p.Scheduled += int64(e.Scheduled)
	p.Received += int64(e.Received)
	p.Errors += int64(e.Errors)
}

func (p *CurvePoint) merge(o *CurvePoint) {
	p.N += o.N
	p.Quantile.Merge(o.Quantile)
	p.Median.Merge(o.Median)
	p.Exceeded += o.Exceeded
	p.Scheduled += o.Scheduled
	p.Received += o.Received
	p.Errors += o.Errors
}

// CellAnalysis is one cell's mergeable analytics partial. Everything in it
// folds record by record and merges associatively — per-shard partials
// merged in shard order yield the same floats as one uninterrupted fold.
type CellAnalysis struct {
	// The report fold's partial — N, Verdicts, Stops and the rest — so the
	// report is literally a view over the analytics partial.
	campaign.CellSummary
	Errored int64 // records with Err set (measurement failures)
	// BySite records each site's verdict code (campaign.VerdictIndex) so
	// cross-cell joins — the confusion matrix — survive merging. One byte
	// per site: O(Jobs) bytes total for a whole campaign, tiny next to a
	// single shard of full records. A shard partial spans only the sites
	// its records hold, from siteOff on.
	BySite  []uint8
	siteOff int
	// Curve maps ramp crowd size to its aggregate point.
	Curve map[int]*CurvePoint
	// Whole-cell request rollups over every epoch (ramp and check phases).
	Scheduled, Received, Errors int64
	RampEpochs, CheckEpochs     int64
}

func newCellAnalysis() *CellAnalysis {
	return &CellAnalysis{CellSummary: *campaign.NewCellSummary(), Curve: make(map[int]*CurvePoint)}
}

// site returns the verdict code of within-cell site i, SiteMissing when
// no record for it has been folded in.
func (c *CellAnalysis) site(i int) uint8 {
	if i -= c.siteOff; i >= 0 && i < len(c.BySite) {
		return c.BySite[i]
	}
	return SiteMissing
}

// cover widens the verdict array to span at least sites [lo, hi).
func (c *CellAnalysis) cover(lo, hi int) {
	if len(c.BySite) == 0 {
		c.siteOff = lo
	}
	lo, hi = min(lo, c.siteOff), max(hi, c.siteOff+len(c.BySite))
	if hi-lo == len(c.BySite) {
		return
	}
	by := make([]uint8, hi-lo)
	for i := range by {
		by[i] = SiteMissing
	}
	copy(by[c.siteOff-lo:], c.BySite)
	c.BySite, c.siteOff = by, lo
}

// add folds one record in; site is the record's within-cell site index.
func (c *CellAnalysis) add(rec *campaign.Record, site int) {
	c.CellSummary.Add(rec)
	if i := site - c.siteOff; i >= 0 && i < len(c.BySite) {
		c.BySite[i] = uint8(campaign.VerdictIndex(rec.Verdict))
	}
	if rec.Err != "" {
		c.Errored++
	}
	if rec.Result == nil {
		return
	}
	for _, sr := range rec.Result.Stages {
		for i := range sr.Epochs {
			e := &sr.Epochs[i]
			c.Scheduled += int64(e.Scheduled)
			c.Received += int64(e.Received)
			c.Errors += int64(e.Errors)
			if e.Kind == core.EpochRamp {
				c.RampEpochs++
				p := c.Curve[e.Crowd]
				if p == nil {
					p = &CurvePoint{}
					c.Curve[e.Crowd] = p
				}
				p.add(e)
			} else {
				c.CheckEpochs++
			}
		}
	}
}

// Merge folds another cell partial (same cell, same plan) in, widening
// the verdict array to o's sites: it costs O(o's span), not O(Sites).
func (c *CellAnalysis) Merge(o *CellAnalysis) {
	c.CellSummary.Merge(&o.CellSummary)
	c.Errored += o.Errored
	if len(o.BySite) > 0 {
		c.cover(o.siteOff, o.siteOff+len(o.BySite))
	}
	for i, code := range o.BySite {
		if code != SiteMissing {
			c.BySite[o.siteOff-c.siteOff+i] = code
		}
	}
	for crowd, op := range o.Curve {
		p := c.Curve[crowd]
		if p == nil {
			p = &CurvePoint{}
			c.Curve[crowd] = p
		}
		p.merge(op)
	}
	c.Scheduled += o.Scheduled
	c.Received += o.Received
	c.Errors += o.Errors
	c.RampEpochs += o.RampEpochs
	c.CheckEpochs += o.CheckEpochs
}

// Crowds returns the curve's crowd sizes in ascending order.
func (c *CellAnalysis) Crowds() []int {
	out := make([]int, 0, len(c.Curve))
	for crowd := range c.Curve {
		out = append(out, crowd)
	}
	sort.Ints(out)
	return out
}

// Analysis is a whole campaign's analytics aggregate, cells indexed as in
// the plan.
type Analysis struct {
	Plan  *campaign.Plan
	Cells []*CellAnalysis
	Done  int
	// Skipped is what the scan behind a Compute passed over.
	Skipped campaign.Skipped
}

// NewAnalysis returns an all-empty analysis shaped for plan's cells.
func NewAnalysis(plan *campaign.Plan) *Analysis {
	a := &Analysis{Plan: plan, Cells: make([]*CellAnalysis, len(plan.Cells))}
	for i := range a.Cells {
		a.Cells[i] = newCellAnalysis()
		a.Cells[i].cover(0, plan.Sites)
	}
	return a
}

// Merge folds another analysis (same plan) in.
func (a *Analysis) Merge(o *Analysis) {
	for i := range a.Cells {
		a.Cells[i].Merge(o.Cells[i])
	}
	a.Done += o.Done
}

// AnalyzeShard folds one shard's records — in job order, repeats dropped
// (campaign.UniqueByJob) — into a fresh partial. Each cell's verdict
// array spans only the sites the records hold, so a partial costs
// O(ShardJobs) bytes however large the plan.
func AnalyzeShard(plan *campaign.Plan, recs []campaign.Record) *Analysis {
	recs, _ = campaign.UniqueByJob(recs)
	a := &Analysis{Plan: plan, Cells: make([]*CellAnalysis, len(plan.Cells)), Done: len(recs)}
	for i := range a.Cells {
		a.Cells[i] = newCellAnalysis()
	}
	for i := range recs {
		j := recs[i].Job
		c := a.Cells[plan.CellOf(j)]
		if len(c.BySite) == 0 {
			// The cell's first record: in job order the rest of its
			// records follow, up to the cell's end or the last record.
			end := min(recs[len(recs)-1].Job, (plan.CellOf(j)+1)*plan.Sites-1)
			c.cover(plan.SiteOf(j), plan.SiteOf(end)+1)
		}
		c.add(&recs[i], plan.SiteOf(j))
	}
	return a
}

// Compute streams one or many stores of the same plan shard by shard —
// memory stays O(len(dirs) · ShardJobs) records — merging per-shard
// partials in shard order. Like the report fold, the result is a pure
// function of (plan, union of completed jobs): byte-identical JSON for a
// single-process store and any distributed split holding the same records.
func Compute(dirs []string) (*Analysis, error) {
	r, err := campaign.OpenReader(dirs...)
	if err != nil {
		return nil, err
	}
	total := NewAnalysis(r.Plan())
	for k := 0; k < r.Plan().Shards(); k++ {
		// Full scan: analytics needs the Result payloads.
		recs, err := r.Shard(k, true)
		if err != nil {
			return nil, err
		}
		total.Merge(AnalyzeShard(r.Plan(), recs))
	}
	total.Skipped = r.Skipped()
	return total, nil
}
