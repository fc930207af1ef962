package experiments

import (
	"context"
	"fmt"
	"time"

	"mfc"
	"mfc/internal/content"
	"mfc/internal/core"
	"mfc/internal/websim"
)

// runSite executes a full three-stage experiment against one simulated
// installation, returning the result and the server handle. label names
// the caller's variant; with the server name and seed it makes the run's
// trace label, which must be unique across the catalog.
func runSite(label string, srvCfg websim.Config, site *content.Site, bg websim.BackgroundConfig,
	cfg core.Config, clients int, seed int64) (*core.Result, *websim.Server, error) {

	run, err := mfc.Run(context.Background(), mfc.SimTarget{
		Server: srvCfg, Site: site, Background: bg, Clients: clients, Seed: seed,
		CommandLoss:   0.015, // the paper's UDP control has no retransmit
		MonitorPeriod: -1,
	}, cfg, traceOpt(fmt.Sprintf("%s %s seed=%d", label, srvCfg.Name, seed)))
	if err != nil {
		return nil, nil, err
	}
	return run.Result, run.Server, nil
}

// ---------------------------------------------------------------------------
// Table 1 — QTNP: two standard MFC runs at θ=100ms and one MFC-mr run at
// θ=250ms.
// ---------------------------------------------------------------------------

// Table1Row is one experiment's row.
type Table1Row struct {
	Label     string
	Threshold time.Duration
	// Per-stage stopping sizes in *requests* (the paper's MFC-mr rows count
	// requests, which is crowd × MultiRequest).
	BaseStop  int // 0 = NoStop
	QueryStop int
	LargeStop int
	MaxReqs   int // requests at the largest epoch probed
	TotalReqs int
}

// Table1Result is the QTNP experiment set.
type Table1Result struct{ Rows []Table1Row }

// Table1 reproduces the §4.1 QTNP runs.
func Table1() (*Table1Result, error) {
	res := &Table1Result{}

	std := core.DefaultConfig()
	std.Threshold = 100 * time.Millisecond
	std.Step = 5
	std.MaxCrowd = 55
	std.MinClients = 50

	mr := core.DefaultConfig()
	mr.Threshold = 250 * time.Millisecond
	mr.Step = 5
	mr.MaxCrowd = 75
	mr.MinClients = 50
	mr.MultiRequest = 2

	runs := []struct {
		label string
		cfg   core.Config
		seed  int64
	}{
		{"MFC 100ms (09/11)", std, 11},
		{"MFC 100ms (09/12)", std, 12},
		{"MFC-mr 250ms (09/21)", mr, 21},
	}
	rows, err := parMap(len(runs), func(i int) (Table1Row, error) {
		r := runs[i]
		out, _, err := runSite("table1 "+r.label, websim.QTNPConfig(), websim.QTSite(7),
			websim.BackgroundConfig{}, r.cfg, 85, r.seed)
		if err != nil {
			return Table1Row{}, fmt.Errorf("experiments: table1 %s: %w", r.label, err)
		}
		row := Table1Row{Label: r.label, Threshold: r.cfg.Threshold, TotalReqs: out.TotalRequests()}
		m := r.cfg.MultiRequest
		if m == 0 {
			m = 1
		}
		for _, sr := range out.Stages {
			stop := 0
			if sr.Verdict == core.VerdictStopped {
				stop = sr.StoppingCrowd * m
			}
			maxReq := 0
			if e := sr.LastRamp(); e != nil {
				maxReq = e.Crowd * m
			}
			switch sr.Stage {
			case core.StageBase:
				row.BaseStop = stop
			case core.StageSmallQuery:
				row.QueryStop = stop
			case core.StageLargeObject:
				row.LargeStop = stop
				row.MaxReqs = maxReq
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// Render prints the Table 1 rows.
func (r *Table1Result) Render() string {
	t := newTable(
		"Table 1: QTNP (paper: Base 20-25/40, SmallQuery 45-55/90, LargeObject NoStop; θ as shown)",
		"experiment", "Base stop", "SmallQry stop", "LargeObj stop", "#reqs")
	for _, row := range r.Rows {
		t.addf("%s|%s|%s|%s|%d", row.Label,
			stopStr(row.BaseStop > 0, row.BaseStop, row.MaxReqs),
			stopStr(row.QueryStop > 0, row.QueryStop, row.MaxReqs),
			stopStr(row.LargeStop > 0, row.LargeStop, row.MaxReqs),
			row.TotalReqs)
	}
	return t.String()
}

// Headline reports the two standard runs' Base and Small Query stops, then
// the MFC-mr run's in requests.
func (r *Table1Result) Headline() []Metric {
	var m []Metric
	for i, row := range r.Rows[:2] {
		m = append(m, Metric{nth("base-stop", i), float64(row.BaseStop)}, Metric{nth("query-stop", i), float64(row.QueryStop)})
	}
	mr := r.Rows[2]
	return append(m, Metric{"mr-base-stop", float64(mr.BaseStop)}, Metric{"mr-query-stop", float64(mr.QueryStop)})
}

// ---------------------------------------------------------------------------
// Table 2 — QTP: synchronization spread of MFC-mr requests per epoch.
// ---------------------------------------------------------------------------

// Table2Row is one epoch: scheduled vs received vs arrival spread.
type Table2Row struct {
	Stage     core.Stage
	Scheduled int
	Received  int
	Spread90s float64 // seconds, middle 90% of arrivals
}

// Table2Result also records that QTP never degraded.
type Table2Result struct {
	Rows []Table2Row
	// MaxMedianIncrease across all epochs and stages — the paper reports
	// QTP never showed even a 10ms increase.
	MaxMedianIncrease time.Duration
}

// Table2 reproduces the §4.1 October-3 QTP run: MFC-mr with 5 parallel
// requests per client, 75 clients.
func Table2() (*Table2Result, error) {
	cfg := core.DefaultConfig()
	cfg.Threshold = 250 * time.Millisecond
	cfg.Step = 7
	cfg.MaxCrowd = 75
	cfg.MinClients = 50
	cfg.MultiRequest = 5
	cfg.KeepSamples = true

	out, _, err := runSite("table2", websim.QTPConfig(), websim.QTSite(7),
		websim.BackgroundConfig{Rate: 35, QueryFraction: 0.5}, cfg, 85, 103)
	if err != nil {
		return nil, err
	}
	res := &Table2Result{}
	for _, sr := range out.Stages {
		for _, e := range sr.Epochs {
			if e.Kind != core.EpochRamp {
				continue
			}
			res.Rows = append(res.Rows, Table2Row{
				Stage:     sr.Stage,
				Scheduled: e.Scheduled,
				Received:  e.Received,
				Spread90s: e.Spread90.Seconds(),
			})
			if e.NormMedian > res.MaxMedianIncrease {
				res.MaxMedianIncrease = e.NormMedian
			}
		}
	}
	return res, nil
}

// Render prints the per-epoch spread rows grouped by stage.
func (r *Table2Result) Render() string {
	t := newTable(
		"Table 2: QTP MFC-mr×5 synchronization (paper: 90% of requests within 0.15-0.45s for Base/Query; QTP never degraded)",
		"stage", "#reqs sched", "#reqs recd", "spread for 90% (s)")
	for _, row := range r.Rows {
		t.addf("%v|%d|%d|%.2f", row.Stage, row.Scheduled, row.Received, row.Spread90s)
	}
	t.addf("max median increase|%s ms||", ms(r.MaxMedianIncrease))
	return t.String()
}

// Headline reports the largest median increase and the widest 90% spread.
func (r *Table2Result) Headline() []Metric {
	worst := 0.0
	for _, row := range r.Rows {
		worst = max(worst, row.Spread90s)
	}
	return []Metric{{"max-median-incr-ms", msf(r.MaxMedianIncrease)}, {"worst-spread90-s", worst}}
}

// ---------------------------------------------------------------------------
// Table 3 — Univ-2 and Univ-3 at three times of day with background
// traffic; plus the Univ-1 run described in §4.2's text.
// ---------------------------------------------------------------------------

// Table3Row is one experiment run at one university at one time of day.
type Table3Row struct {
	Label     string
	BGRate    float64 // background requests/sec
	BaseStop  int     // requests (MFC-mr counts requests); 0 = NoStop
	QueryStop int
	LargeStop int
	MaxReqs   int
	MFCReqs   int
	BGShare   float64 // MFC traffic as a fraction of all requests
}

// Table3Result covers one university's three runs.
type Table3Result struct {
	Site string
	Rows []Table3Row
}

// Table3Univ2 reproduces Table 3(a): Apache behind 1 Gbps, modest
// background traffic, the thread-limit artifact stopping every stage
// around 110-150 requests.
func Table3Univ2() (*Table3Result, error) {
	return table3("univ2", websim.Univ2Config(), websim.Univ2Site(5), []struct {
		label string
		rate  float64
		seed  int64
	}{
		{"10:15", 4.2, 1015},
		{"17:25", 2.9, 1725},
		{"23:54", 3.5, 2354},
	})
}

// Table3Univ3 reproduces Table 3(b): adequate base processing, strong
// link, weak query path (stop ≈30), 5-9× more background traffic.
func Table3Univ3() (*Table3Result, error) {
	return table3("univ3", websim.Univ3Config(), websim.Univ3Site(5), []struct {
		label string
		rate  float64
		seed  int64
	}{
		{"09:25", 20.3, 925},
		{"16:05", 18.7, 1605},
		{"22:55", 12.5, 2255},
	})
}

func table3(site string, srvCfg websim.Config, siteModel *content.Site, runs []struct {
	label string
	rate  float64
	seed  int64
}) (*Table3Result, error) {
	rows, err := parMap(len(runs), func(i int) (Table3Row, error) {
		r := runs[i]
		cfg := core.DefaultConfig()
		cfg.Threshold = 250 * time.Millisecond
		cfg.Step = 5
		cfg.MaxCrowd = 75
		cfg.MinClients = 50
		cfg.MultiRequest = 2

		out, server, err := runSite("table3 "+r.label, srvCfg, siteModel,
			websim.BackgroundConfig{Rate: r.rate}, cfg, 85, r.seed)
		if err != nil {
			return Table3Row{}, fmt.Errorf("experiments: table3 %s %s: %w", site, r.label, err)
		}
		row := Table3Row{Label: r.label, BGRate: r.rate, MFCReqs: out.TotalRequests()}
		for _, sr := range out.Stages {
			stop := 0
			if sr.Verdict == core.VerdictStopped {
				stop = sr.StoppingCrowd * 2
			}
			if e := sr.LastRamp(); e != nil && e.Crowd*2 > row.MaxReqs {
				row.MaxReqs = e.Crowd * 2
			}
			switch sr.Stage {
			case core.StageBase:
				row.BaseStop = stop
			case core.StageSmallQuery:
				row.QueryStop = stop
			case core.StageLargeObject:
				row.LargeStop = stop
			}
		}
		total := len(server.AccessLog())
		if total > 0 {
			mfcN := 0
			for _, a := range server.AccessLog() {
				if a.Tag == "mfc" || a.Tag == "baseline" {
					mfcN++
				}
			}
			row.BGShare = float64(mfcN) / float64(total)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table3Result{Site: site, Rows: rows}, nil
}

// Render prints one university's table.
func (r *Table3Result) Render() string {
	title := "Table 3(a): Univ-2 (paper: all stages stop at 110-150 requests — software artifact)"
	if r.Site == "univ3" {
		title = "Table 3(b): Univ-3 (paper: SmallQuery stops ≈30, LargeObject NoStop, Base varies with background)"
	}
	t := newTable(title,
		"time", "bg req/s", "Base stop", "SmallQry stop", "LargeObj stop", "MFC reqs", "MFC share")
	for _, row := range r.Rows {
		t.addf("%s|%.1f|%s|%s|%s|%d|%.0f%%", row.Label, row.BGRate,
			stopStr(row.BaseStop > 0, row.BaseStop, row.MaxReqs),
			stopStr(row.QueryStop > 0, row.QueryStop, row.MaxReqs),
			stopStr(row.LargeStop > 0, row.LargeStop, row.MaxReqs),
			row.MFCReqs, row.BGShare*100)
	}
	return t.String()
}

// Headline reports each run's Base and Small Query stops in requests.
func (r *Table3Result) Headline() []Metric {
	var m []Metric
	for i, row := range r.Rows {
		m = append(m, Metric{nth("base-stop-reqs", i), float64(row.BaseStop)}, Metric{nth("query-stop-reqs", i), float64(row.QueryStop)})
	}
	return m
}

// Univ1Result is the §4.2 Univ-1 narrative run (no table in the paper; the
// text reports stopping sizes 5/5/25 with a 100ms threshold).
type Univ1Result struct {
	BaseFirstExceed  int
	QueryFirstExceed int
	LargeStop        int
	BaseStop         int
	QueryStop        int
}

// Univ1 runs the standard MFC against the weak research-group server. The
// paper's "stopping size 5" is FirstExceed post-analysis (footnote 2): the
// ramp cannot stop below the 15-client significance floor.
func Univ1() (*Univ1Result, error) {
	cfg := core.DefaultConfig()
	cfg.Threshold = 100 * time.Millisecond
	cfg.Step = 5
	cfg.MaxCrowd = 50
	cfg.MinClients = 50

	out, _, err := runSite("univ1", websim.Univ1Config(), websim.Univ1Site(5),
		websim.BackgroundConfig{Rate: 0.15}, cfg, 65, 811)
	if err != nil {
		return nil, err
	}
	res := &Univ1Result{}
	for _, sr := range out.Stages {
		switch sr.Stage {
		case core.StageBase:
			res.BaseFirstExceed = sr.FirstExceed
			res.BaseStop = sr.StoppingCrowd
		case core.StageSmallQuery:
			res.QueryFirstExceed = sr.FirstExceed
			res.QueryStop = sr.StoppingCrowd
		case core.StageLargeObject:
			res.LargeStop = sr.StoppingCrowd
		}
	}
	return res, nil
}

// Render prints the Univ-1 narrative numbers.
func (r *Univ1Result) Render() string {
	t := newTable(
		"Univ-1 (paper: Base and SmallQuery degrade at just 5 clients; LargeObject stops at 25)",
		"metric", "value")
	t.addf("Base first >θ crowd|%d", r.BaseFirstExceed)
	t.addf("SmallQuery first >θ crowd|%d", r.QueryFirstExceed)
	t.addf("Base confirmed stop|%d", r.BaseStop)
	t.addf("SmallQuery confirmed stop|%d", r.QueryStop)
	t.addf("LargeObject confirmed stop|%d", r.LargeStop)
	return t.String()
}

// Headline reports the five numbers the narrative quotes.
func (r *Univ1Result) Headline() []Metric {
	return []Metric{
		{"base-first-exceed", float64(r.BaseFirstExceed)}, {"query-first-exceed", float64(r.QueryFirstExceed)},
		{"base-stop", float64(r.BaseStop)}, {"query-stop", float64(r.QueryStop)}, {"large-stop", float64(r.LargeStop)},
	}
}
