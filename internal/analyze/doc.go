package analyze

import (
	"encoding/json"

	"mfc/internal/campaign"
	"mfc/internal/stats"
)

// Doc is the analysis rendered to plain deterministic data: every
// collection is an explicitly ordered slice (or a map with string keys,
// which encoding/json sorts), so the JSON bytes are a pure function of
// (plan, union of completed jobs) — golden-testable, and byte-identical
// across kills, resumes, and distributed splits of the same campaign.
type Doc struct {
	Campaign    string         `json:"campaign"`
	Seed        int64          `json:"seed"`
	Sites       int            `json:"sites_per_cell"`
	TotalJobs   int            `json:"total_jobs"`
	DoneJobs    int            `json:"done_jobs"`
	Complete    bool           `json:"complete"`
	ThresholdMs float64        `json:"threshold_ms"`
	Cells       []CellDoc      `json:"cells"`
	Confusion   []ConfusionDoc `json:"confusion,omitempty"`
}

// CellDoc is one band×stage×scenario cell's analytics.
type CellDoc struct {
	Band     string `json:"band"`
	Stage    string `json:"stage"`
	Scenario string `json:"scenario,omitempty"`

	N        int              `json:"n"`
	Measured int64            `json:"measured"`
	Errored  int64            `json:"errored,omitempty"`
	Verdicts map[string]int64 `json:"verdicts"`

	StopP50 float64 `json:"stop_p50,omitempty"`
	StopP90 float64 `json:"stop_p90,omitempty"`

	// KneeCrowd is the smallest ramp crowd from which the cell's mean
	// detection quantile stays above θ — the response-time knee vs the
	// cell's provisioning tier. 0 means the curve never bends.
	KneeCrowd int `json:"knee_crowd"`

	Requests RequestsDoc `json:"requests"`
	Epochs   EpochsDoc   `json:"epochs"`
	Curve    []PointDoc  `json:"curve,omitempty"`
}

// RequestsDoc is a cell's request/error rollup over every epoch, ramp and
// check phases alike. Errors counts error-class samples (timeouts, 429s,
// 5xx) as scored by the detection floor.
type RequestsDoc struct {
	Scheduled int64   `json:"scheduled"`
	Received  int64   `json:"received"`
	Errors    int64   `json:"errors"`
	ErrorRate float64 `json:"error_rate"`
}

// EpochsDoc counts a cell's epochs by phase.
type EpochsDoc struct {
	Ramp  int64 `json:"ramp"`
	Check int64 `json:"check"`
}

// Moments is a Running summary rendered to plain numbers.
type Moments struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

func moments(r stats.Running) Moments {
	if r.N == 0 {
		return Moments{}
	}
	return Moments{Mean: r.Mean(), Min: r.Min, Max: r.Max}
}

// PointDoc is one crowd position on a cell's latency curve, in
// milliseconds. QuantileMs is the detection quantile (error-class floor
// applied); MedianMs the reference median clients actually measured.
type PointDoc struct {
	Crowd            int     `json:"crowd"`
	N                int64   `json:"n"`
	QuantileMs       Moments `json:"quantile_ms"`
	MedianMs         Moments `json:"median_ms"`
	ExceededFraction float64 `json:"exceeded_fraction"`
	Scheduled        int64   `json:"scheduled"`
	Received         int64   `json:"received"`
	Errors           int64   `json:"errors,omitempty"`
}

// ConfusionDoc is one scenario cell's verdict confusion matrix against
// its (band, stage) group's baseline cell: predicted is the verdict the
// baseline (clean) measurement gave a site, observed the verdict under
// the scenario. Evaded counts Stopped→NoStop flips — sites whose real
// stopping the scenario hid from MFC — and FalseStop the reverse.
type ConfusionDoc struct {
	Band      string         `json:"band"`
	Stage     string         `json:"stage"`
	Scenario  string         `json:"scenario"`
	Baseline  string         `json:"baseline"`
	Sites     int64          `json:"sites"`
	Agree     int64          `json:"agree"`
	Evaded    int64          `json:"evaded"`
	FalseStop int64          `json:"false_stop"`
	Rows      []ConfusionRow `json:"rows"`
}

// ConfusionRow is one non-zero (predicted, observed) pair count.
type ConfusionRow struct {
	Predicted string `json:"predicted"`
	Observed  string `json:"observed"`
	N         int64  `json:"n"`
}

// msMoments renders a Running recorded in seconds as milliseconds.
func msMoments(r stats.Running) Moments {
	m := moments(r)
	return Moments{Mean: m.Mean * 1e3, Min: m.Min * 1e3, Max: m.Max * 1e3}
}

// baselineCell finds the (band, stage) group's baseline cell index: the
// cell with an empty scenario, or failing that the "clean" preset. -1
// when the group has no baseline to predict from.
func baselineCell(plan *campaign.Plan, band, stage string) int {
	clean := -1
	for i, cell := range plan.Cells {
		if cell.Band != band || cell.Stage != stage {
			continue
		}
		switch cell.Scenario {
		case "":
			return i
		case "clean":
			clean = i
		}
	}
	return clean
}

// Doc renders the analysis to its deterministic document.
func (a *Analysis) Doc() *Doc {
	plan := a.Plan
	names := campaign.VerdictNames()
	doc := &Doc{
		Campaign:    plan.Name,
		Seed:        plan.Seed,
		Sites:       plan.Sites,
		TotalJobs:   plan.Jobs(),
		DoneJobs:    a.Done,
		Complete:    a.Done == plan.Jobs(),
		ThresholdMs: float64(plan.Threshold().Milliseconds()),
	}

	for ci, cell := range plan.Cells {
		c := a.Cells[ci]
		cd := CellDoc{
			Band:     cell.Band,
			Stage:    cell.Stage,
			Scenario: cell.Scenario,
			N:        c.N,
			Measured: c.Measured(),
			Errored:  c.Errored,
			Verdicts: make(map[string]int64, len(names)),
		}
		for i, name := range names {
			if c.Verdicts[i] > 0 || i < 2 { // always show Stopped/NoStop
				cd.Verdicts[name] = c.Verdicts[i]
			}
		}
		if c.Stops.N > 0 {
			cd.StopP50, _ = c.Stops.Quantile(0.5)
			cd.StopP90, _ = c.Stops.Quantile(0.9)
		}
		cd.Requests = RequestsDoc{Scheduled: c.Scheduled, Received: c.Received, Errors: c.Errors}
		if c.Received > 0 {
			cd.Requests.ErrorRate = float64(c.Errors) / float64(c.Received)
		}
		cd.Epochs = EpochsDoc{Ramp: c.RampEpochs, Check: c.CheckEpochs}

		crowds := c.Crowds()
		quantiles := make([]float64, len(crowds))
		for i, crowd := range crowds {
			p := c.Curve[crowd]
			quantiles[i] = p.Quantile.Mean() * 1e3
			pd := PointDoc{
				Crowd:      crowd,
				N:          p.N,
				QuantileMs: msMoments(p.Quantile),
				MedianMs:   msMoments(p.Median),
				Scheduled:  p.Scheduled,
				Received:   p.Received,
				Errors:     p.Errors,
			}
			if p.N > 0 {
				pd.ExceededFraction = float64(p.Exceeded) / float64(p.N)
			}
			cd.Curve = append(cd.Curve, pd)
		}
		if k := stats.Knee(quantiles, doc.ThresholdMs); k >= 0 {
			cd.KneeCrowd = crowds[k]
		}
		doc.Cells = append(doc.Cells, cd)
	}

	// Confusion matrices: every scenario cell against its group's
	// baseline, in plan order.
	for ci, cell := range plan.Cells {
		bi := baselineCell(plan, cell.Band, cell.Stage)
		if bi < 0 || bi == ci {
			continue
		}
		base, scen := a.Cells[bi], a.Cells[ci]
		conf := ConfusionDoc{
			Band:     cell.Band,
			Stage:    cell.Stage,
			Scenario: cell.Scenario,
			Baseline: plan.Cells[bi].Scenario,
		}
		if conf.Baseline == "" {
			conf.Baseline = "clean"
		}
		n := len(names)
		counts := make([]int64, n*n) // [predicted][observed]
		for site := 0; site < plan.Sites; site++ {
			p, o := int(base.site(site)), int(scen.site(site))
			if p >= n || o >= n {
				continue // SiteMissing on either side: no pair to join
			}
			counts[p*n+o]++
			conf.Sites++
			if p == o {
				conf.Agree++
			}
		}
		conf.Evaded = counts[0*n+1]    // Stopped → NoStop
		conf.FalseStop = counts[1*n+0] // NoStop → Stopped
		for p := 0; p < n; p++ {
			for o := 0; o < n; o++ {
				if counts[p*n+o] > 0 {
					conf.Rows = append(conf.Rows, ConfusionRow{
						Predicted: names[p], Observed: names[o], N: counts[p*n+o],
					})
				}
			}
		}
		doc.Confusion = append(doc.Confusion, conf)
	}
	return doc
}

// JSON renders the document to its canonical bytes: two-space indent,
// trailing newline. Every consumer — the CLI verb, the golden test, the
// /analyze.json endpoint, the analyze-smoke diff — uses exactly this
// encoding, so "byte-identical" means the same thing everywhere.
func (d *Doc) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
