package experiments

import (
	"fmt"

	"mfc/internal/campaign"
	"mfc/internal/core"
	"mfc/internal/population"
)

// share returns bucket i's share of the cell's measured sites.
func share(c *campaign.CellSummary, i int) float64 {
	if m := c.Measured(); m > 0 {
		return float64(c.Buckets[i]) / float64(m)
	}
	return 0
}

// PopulationResult is one figure's campaign cells, indexed as rankBands.
type PopulationResult struct {
	Stage core.Stage
	Bands []*campaign.CellSummary
}

var rankBands = [4]population.Band{
	population.Rank1K, population.Rank10K, population.Rank100K, population.Rank1M,
}

// populationFigure measures one stage against the first sizes[i] sites of
// each rank band, as §5 does.
func populationFigure(stage core.Stage, sizes [4]int, seed int64) (*PopulationResult, error) {
	res := &PopulationResult{Stage: stage}
	for bi, band := range rankBands {
		cell, err := measureCell(band, stage, sizes[bi], seed)
		if err != nil {
			return nil, err
		}
		res.Bands = append(res.Bands, cell)
	}
	return res, nil
}

// measureCell measures stage on the band's first n sites: a single-cell
// campaign plan at the experiment's seed, with the campaign's §5 parameters
// (standard MFC, θ=100ms, one request per client, ramp to 50, the bucket
// ceiling the paper reports). Site i depends only on (seed, band, i), so it
// is site i of any on-disk campaign over the same band and seed with at
// least n sites per cell, and every stage measures the same servers.
func measureCell(band population.Band, stage core.Stage, n int, seed int64) (*campaign.CellSummary, error) {
	plan, err := campaign.NewPlan(fmt.Sprintf("%v/%v", band, stage),
		[]population.Band{band}, []core.Stage{stage}, nil, n, seed)
	if err != nil {
		return nil, err
	}
	return measurePlan(plan)
}

// measurePlan runs every job of a single-cell plan on the package worker
// pool and folds the records in job order, so the summary is byte-identical
// whatever the pool size. A measurement that errored or was aborted fails
// the whole cell.
func measurePlan(plan *campaign.Plan) (*campaign.CellSummary, error) {
	recs, err := parMap(plan.Jobs(), func(j int) (*campaign.Record, error) {
		var onEvent func(campaign.SiteEvent)
		if traceFactory != nil {
			obs := traceFactory(fmt.Sprintf("%s #%d", plan.Name, j))
			onEvent = func(ev campaign.SiteEvent) { obs(ev.Event) }
		}
		rec := campaign.Measure(plan, j, onEvent)
		if rec.Verdict == "Error" || rec.Verdict == "Aborted" {
			return nil, fmt.Errorf("experiments: %s on %s: %s: %s", rec.Stage, rec.Site, rec.Verdict, rec.Err)
		}
		rec.Result = nil // the fold reads only the compact fields
		return rec, nil
	})
	if err != nil {
		return nil, err
	}
	sum := campaign.NewCellSummary()
	for _, rec := range recs {
		sum.Add(rec)
	}
	return sum, nil
}

// Figure7 reproduces the Base-stage breakdown by Quantcast rank
// (114/107/118/148 sites in the four bands).
func Figure7(seed int64) (*PopulationResult, error) {
	return populationFigure(core.StageBase, [4]int{114, 107, 118, 148}, seed)
}

// Figure8 reproduces the Small Query breakdown (106/103/103/122 sites).
func Figure8(seed int64) (*PopulationResult, error) {
	return populationFigure(core.StageSmallQuery, [4]int{106, 103, 103, 122}, seed)
}

// Figure9 reproduces the Large Object breakdown (129/100/114/103 sites).
func Figure9(seed int64) (*PopulationResult, error) {
	return populationFigure(core.StageLargeObject, [4]int{129, 100, 114, 103}, seed)
}

// figures holds each §5 stage's figure number and the paper's reading of it.
var figures = map[core.Stage]struct{ num, paper string }{
	core.StageBase:        {"7", "stopped fraction grows 17%→45% with rank; ~10% of top sites degrade <40"},
	core.StageSmallQuery:  {"8", "strong rank correlation; 100K-1M: ~75% can't handle 50, ~45% can't handle 20"},
	core.StageLargeObject: {"9", "weak rank correlation; ~45-55% of non-top sites can't handle 50"},
}

// Render prints a band × bucket percentage table.
func (r *PopulationResult) Render() string {
	fig := figures[r.Stage]
	t := newTable(
		fmt.Sprintf("Figure %s: %v-stage stopping crowd sizes by rank (paper Fig %s: %s)", fig.num, r.Stage, fig.num, fig.paper),
		append([]string{"band", "n"}, append(population.BucketLabels, "stopped%")...)...)
	for bi, h := range r.Bands {
		cells := fmt.Sprintf("%v|%d", rankBands[bi], h.Measured())
		for i := range population.BucketLabels {
			cells += fmt.Sprintf("|%.0f%%", share(h, i)*100)
		}
		cells += fmt.Sprintf("|%.0f%%", h.StoppedFraction()*100)
		t.addf("%s", cells)
	}
	return t.String()
}

// Headline reports each band's stopped percentage, top band first.
func (r *PopulationResult) Headline() []Metric {
	names := [4]string{"top-stopped-pct", "1K-10K-stopped-pct", "10K-100K-stopped-pct", "bottom-stopped-pct"}
	var m []Metric
	for bi, h := range r.Bands {
		m = append(m, Metric{names[bi], h.StoppedFraction() * 100})
	}
	return m
}

// ---------------------------------------------------------------------------
// Table 4 — startups; Table 5 — phishing.
// ---------------------------------------------------------------------------

// SpecialPopResult is a stopping-size histogram for a special population.
type SpecialPopResult struct {
	Label string
	Cell  *campaign.CellSummary
	Paper [5]int // the paper's percentages for reference
}

func specialPop(label string, band population.Band, stage core.Stage, n int, seed int64, paper [5]int) (*SpecialPopResult, error) {
	cell, err := measureCell(band, stage, n, seed)
	if err != nil {
		return nil, err
	}
	return &SpecialPopResult{Label: label, Cell: cell, Paper: paper}, nil
}

// Table4Base reproduces the startup study's Base stage on 107 servers.
func Table4Base(seed int64) (*SpecialPopResult, error) {
	return specialPop("startups/Base", population.Startup, core.StageBase, 107, seed, [5]int{24, 6, 7, 6, 58})
}

// Table4Query is its Small Query stage, on the first 82 of them.
func Table4Query(seed int64) (*SpecialPopResult, error) {
	return specialPop("startups/SmallQuery", population.Startup, core.StageSmallQuery, 82, seed, [5]int{33, 12, 6, 5, 44})
}

// Table5 reproduces the phishing study: Base stage on 89 hosts.
func Table5(seed int64) (*SpecialPopResult, error) {
	return specialPop("phishing/Base", population.Phishing, core.StageBase, 89, seed, [5]int{12, 16, 11, 11, 50})
}

// Render prints measured-vs-paper bucket percentages.
func (r *SpecialPopResult) Render() string {
	t := newTable(fmt.Sprintf("%s stopping crowd sizes (n=%d)", r.Label, r.Cell.Measured()),
		"bucket", "measured", "paper")
	for i, lbl := range population.BucketLabels {
		t.addf("%s|%.0f%%|%d%%", lbl, share(r.Cell, i)*100, r.Paper[i])
	}
	return t.String()
}

// Headline reports the weakest bucket and NoStop, each named with the
// paper's percentage.
func (r *SpecialPopResult) Headline() []Metric {
	return []Metric{
		{fmt.Sprintf("weak-pct(paper-%d)", r.Paper[0]), share(r.Cell, 0) * 100},
		{fmt.Sprintf("nostop-pct(paper-%d)", r.Paper[4]), (1 - r.Cell.StoppedFraction()) * 100},
	}
}
