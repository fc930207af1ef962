package experiments

import (
	"context"
	"fmt"
	"time"

	"mfc"
	"mfc/internal/core"
	"mfc/internal/population"
)

// BandHistogram is the stopping-size distribution for one rank band.
type BandHistogram struct {
	Band    population.Band
	Counts  [5]int
	Total   int
	Skipped int // sites whose stage was unavailable (e.g. no large object)
}

// Fraction returns bucket i's share of measured sites.
func (h *BandHistogram) Fraction(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}

// StoppedFraction is the share of sites that showed a confirmed
// degradation at any crowd size.
func (h *BandHistogram) StoppedFraction() float64 {
	return 1 - h.Fraction(4)
}

// PopulationResult is one figure's histograms over all bands.
type PopulationResult struct {
	Stage core.Stage
	Bands []BandHistogram
}

// siteOutcome is one site's measurement, carried from the worker pool back
// to the in-order aggregation.
type siteOutcome struct {
	stop int
	ok   bool
}

// runPopulationStage measures one stage against every site in each band,
// as §5 does: standard MFC, θ=100ms, one request per client, at most 85
// clients (we ramp to 50, the bucket ceiling the paper reports).
//
// The sites are measured on the package worker pool: each site's simulation
// seed is derived from its band and index exactly as the original sequential
// loop derived it, and the histogram is folded in site order afterwards, so
// the result is byte-identical whatever the pool size.
func runPopulationStage(stage core.Stage, bands []population.Band, sizes []int, seed int64) (*PopulationResult, error) {
	res := &PopulationResult{Stage: stage}
	for bi, band := range bands {
		n := sizes[bi]
		samples := population.Generate(band, n, seed+int64(bi)*1000)
		outcomes, err := parMap(len(samples), func(si int) (siteOutcome, error) {
			stop, ok, err := measureSite(stage, samples[si], seed+int64(bi)*1000+int64(si))
			if err != nil {
				return siteOutcome{}, fmt.Errorf("experiments: %v on %s: %w", stage, samples[si].Name, err)
			}
			return siteOutcome{stop: stop, ok: ok}, nil
		})
		if err != nil {
			return nil, err
		}
		hist := BandHistogram{Band: band}
		for _, o := range outcomes {
			if !o.ok {
				hist.Skipped++
				continue
			}
			hist.Counts[population.BucketOf(o.stop)]++
			hist.Total++
		}
		res.Bands = append(res.Bands, hist)
	}
	return res, nil
}

// measureSite runs one single-stage MFC against one population sample.
// ok=false means the stage was unavailable for this site's content.
func measureSite(stage core.Stage, sample population.SiteSample, seed int64) (stop int, ok bool, err error) {
	cfg := core.DefaultConfig()
	cfg.Threshold = 100 * time.Millisecond
	cfg.Step = 5
	cfg.MaxCrowd = 50
	cfg.MinClients = 50

	run, err := mfc.Run(context.Background(), mfc.SimTarget{
		Server: sample.Config, Site: sample.Site, Clients: 60, Seed: seed,
		NoAccessLog: true, MonitorPeriod: -1,
	}, cfg, mfc.WithStage(stage),
		traceOpt(fmt.Sprintf("%v %s", stage, sample.Name)))
	if err != nil {
		return 0, false, err
	}
	sr := run.Result.Stages[0]
	switch sr.Verdict {
	case core.VerdictStopped:
		return sr.StoppingCrowd, true, nil
	case core.VerdictNoStop:
		return 0, true, nil
	case core.VerdictUnavailable:
		return 0, false, nil
	default:
		return 0, false, fmt.Errorf("unexpected verdict %v", sr.Verdict)
	}
}

var rankBands = []population.Band{
	population.Rank1K, population.Rank10K, population.Rank100K, population.Rank1M,
}

// Figure7 reproduces the Base-stage breakdown by Quantcast rank
// (114/107/118/148 sites in the four bands).
func Figure7(seed int64) (*PopulationResult, error) {
	return runPopulationStage(core.StageBase, rankBands, []int{114, 107, 118, 148}, seed)
}

// Figure8 reproduces the Small Query breakdown (106/103/103/122 sites).
func Figure8(seed int64) (*PopulationResult, error) {
	return runPopulationStage(core.StageSmallQuery, rankBands, []int{106, 103, 103, 122}, seed)
}

// Figure9 reproduces the Large Object breakdown (129/100/114/103 sites).
func Figure9(seed int64) (*PopulationResult, error) {
	return runPopulationStage(core.StageLargeObject, rankBands, []int{129, 100, 114, 103}, seed)
}

// Render prints a band × bucket percentage table.
func (r *PopulationResult) Render() string {
	var paperNote string
	switch r.Stage {
	case core.StageBase:
		paperNote = "(paper Fig 7: stopped fraction grows 17%→45% with rank; ~10% of top sites degrade <40)"
	case core.StageSmallQuery:
		paperNote = "(paper Fig 8: strong rank correlation; 100K-1M: ~75% can't handle 50, ~45% can't handle 20)"
	case core.StageLargeObject:
		paperNote = "(paper Fig 9: weak rank correlation; ~45-55% of non-top sites can't handle 50)"
	}
	t := newTable(
		fmt.Sprintf("Figure %s: %v-stage stopping crowd sizes by rank %s", figNum(r.Stage), r.Stage, paperNote),
		append([]string{"band", "n"}, append(population.BucketLabels, "stopped%")...)...)
	for _, h := range r.Bands {
		cells := fmt.Sprintf("%v|%d", h.Band, h.Total)
		for i := range population.BucketLabels {
			cells += fmt.Sprintf("|%.0f%%", h.Fraction(i)*100)
		}
		cells += fmt.Sprintf("|%.0f%%", h.StoppedFraction()*100)
		t.addf("%s", cells)
	}
	return t.String()
}

func figNum(s core.Stage) string {
	switch s {
	case core.StageBase:
		return "7"
	case core.StageSmallQuery:
		return "8"
	case core.StageLargeObject:
		return "9"
	}
	return "?"
}

// ---------------------------------------------------------------------------
// Table 4 — startups; Table 5 — phishing.
// ---------------------------------------------------------------------------

// SpecialPopResult is a stopping-size histogram for a special population.
type SpecialPopResult struct {
	Label  string
	Stage  core.Stage
	Hist   BandHistogram
	Paper  [5]int // the paper's percentages for reference
	HasRef bool
}

// Table4 reproduces the startup study: Base on 107 servers and Small Query
// on 82.
func Table4(seed int64) (*SpecialPopResult, *SpecialPopResult, error) {
	base, err := runPopulationStage(core.StageBase, []population.Band{population.Startup}, []int{107}, seed)
	if err != nil {
		return nil, nil, err
	}
	query, err := runPopulationStage(core.StageSmallQuery, []population.Band{population.Startup}, []int{82}, seed+500)
	if err != nil {
		return nil, nil, err
	}
	b := &SpecialPopResult{Label: "startups/Base", Stage: core.StageBase, Hist: base.Bands[0],
		Paper: [5]int{24, 6, 7, 6, 58}, HasRef: true}
	q := &SpecialPopResult{Label: "startups/SmallQuery", Stage: core.StageSmallQuery, Hist: query.Bands[0],
		Paper: [5]int{33, 12, 6, 5, 44}, HasRef: true}
	return b, q, nil
}

// Table5 reproduces the phishing study: Base stage on 89 hosts.
func Table5(seed int64) (*SpecialPopResult, error) {
	r, err := runPopulationStage(core.StageBase, []population.Band{population.Phishing}, []int{89}, seed)
	if err != nil {
		return nil, err
	}
	return &SpecialPopResult{Label: "phishing/Base", Stage: core.StageBase, Hist: r.Bands[0],
		Paper: [5]int{12, 16, 11, 11, 50}, HasRef: true}, nil
}

// Render prints measured-vs-paper bucket percentages.
func (r *SpecialPopResult) Render() string {
	t := newTable(fmt.Sprintf("%s stopping crowd sizes (n=%d)", r.Label, r.Hist.Total),
		"bucket", "measured", "paper")
	for i, lbl := range population.BucketLabels {
		paper := ""
		if r.HasRef {
			paper = fmt.Sprintf("%d%%", r.Paper[i])
		}
		t.addf("%s|%.0f%%|%s", lbl, r.Hist.Fraction(i)*100, paper)
	}
	return t.String()
}
