package experiments

import (
	"fmt"

	"mfc/internal/content"
	"mfc/internal/core"
	"mfc/internal/websim"
)

// ---------------------------------------------------------------------------
// Use case from §1: "MFCs could be used to perform comparative evaluations
// of alternate application deployment configurations, e.g., using
// different hosting providers." Run the identical MFC against two
// candidate deployments of the same site and put the stopping sizes side
// by side.
// ---------------------------------------------------------------------------

// Deployment is one candidate configuration.
type Deployment struct {
	Label  string
	Config websim.Config
}

// DefaultCompareConfig is the standard MFC tuned for comparisons: θ=100ms,
// ramp to 55 so the QTNP-class presets resolve all three stages.
func DefaultCompareConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxCrowd = 55
	cfg.MinClients = 50
	return cfg
}

// ExtensionCompare runs the §1 use case on QTNP as deployed, QTNP with a
// doubled database pool, and the QTP farm.
func ExtensionCompare(seed int64) (*CompareResult, error) {
	bigger := websim.QTNPConfig()
	bigger.DBConns = 8
	return CompareDeployments(websim.QTSite(7), DefaultCompareConfig(), []Deployment{
		{Label: "qtnp-as-is", Config: websim.QTNPConfig()},
		{Label: "qtnp+8conns", Config: bigger},
		{Label: "qtp-farm", Config: websim.QTPConfig()},
	}, seed)
}

// CompareRow is one stage's side-by-side outcome.
type CompareRow struct {
	Stage core.Stage
	Stops []int // one per deployment; 0 = NoStop
}

// CompareResult is the deployment comparison.
type CompareResult struct {
	Labels []string
	Rows   []CompareRow
	// Winner is the label with the most NoStops, ties broken by larger
	// stopping sizes (simple operator-facing heuristic).
	Winner string
}

// CompareDeployments profiles the same content on each candidate
// deployment with the identical MFC configuration and client population.
func CompareDeployments(site *content.Site, cfg core.Config, deployments []Deployment, seed int64) (*CompareResult, error) {
	if len(deployments) < 2 {
		return nil, fmt.Errorf("experiments: need at least two deployments to compare")
	}
	res := &CompareResult{}
	byStage := map[core.Stage][]int{}
	scores := make([]int, len(deployments))

	// Each deployment is profiled on its own Env; the pool returns per-run
	// results indexed by deployment, and the scoring folds them in the
	// original deployment order.
	outs, err := parMap(len(deployments), func(di int) (*core.Result, error) {
		out, _, err := runSite(deployments[di].Config, site, websim.BackgroundConfig{}, cfg, 65, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: comparing %s: %w", deployments[di].Label, err)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	for di, out := range outs {
		res.Labels = append(res.Labels, deployments[di].Label)
		for _, sr := range out.Stages {
			stop := 0
			if sr.Verdict == core.VerdictStopped {
				stop = sr.StoppingCrowd
			}
			byStage[sr.Stage] = append(byStage[sr.Stage], stop)
			switch {
			case stop == 0:
				scores[di] += 1000 // NoStop dominates
			default:
				scores[di] += stop
			}
		}
	}
	for _, stage := range core.Stages {
		if stops, ok := byStage[stage]; ok {
			res.Rows = append(res.Rows, CompareRow{Stage: stage, Stops: stops})
		}
	}
	best := 0
	for i, s := range scores {
		if s > scores[best] {
			best = i
		}
	}
	res.Winner = res.Labels[best]
	return res, nil
}

// Render prints the comparison table.
func (r *CompareResult) Render() string {
	headers := append([]string{"stage"}, r.Labels...)
	t := newTable("Deployment comparison (§1 use case): stopping crowd sizes under the identical MFC", headers...)
	for _, row := range r.Rows {
		cells := row.Stage.String()
		for _, s := range row.Stops {
			if s > 0 {
				cells += fmt.Sprintf("|%d", s)
			} else {
				cells += "|NoStop"
			}
		}
		t.addf("%s", cells)
	}
	t.addf("winner|%s", r.Winner)
	return t.String()
}

// Headline reports the Small Query stops of the first deployment (the one
// as it is) and the second (the candidate).
func (r *CompareResult) Headline() []Metric {
	for _, row := range r.Rows {
		if row.Stage == core.StageSmallQuery {
			return []Metric{{"asis-query-stop", float64(row.Stops[0])}, {"bigger-pool-query-stop", float64(row.Stops[1])}}
		}
	}
	return nil
}
