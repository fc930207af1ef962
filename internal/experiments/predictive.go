package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"mfc"
	"mfc/internal/content"
	"mfc/internal/core"
	"mfc/internal/netsim"
	"mfc/internal/websim"
)

// ---------------------------------------------------------------------------
// Predictive validation: the premise of the whole paper is that MFC's
// gentle, controlled probes predict how a server behaves under a *real*
// flash crowd. This experiment tests that premise end to end: measure a
// target with the standard MFC, then hit a fresh copy of the same target
// with an organic surge (linear ramp of Poisson arrivals) and find the
// concurrency at which it actually degrades. The two numbers should agree.
// ---------------------------------------------------------------------------

// PredictiveRow is one target's MFC prediction vs flash-crowd reality.
type PredictiveRow struct {
	Target      string
	MFCStop     int // stopping crowd from the Base-stage MFC (0 = NoStop)
	ActualPoint int // degradation concurrency under the real surge (0 = none)
	PeakConc    int // peak concurrency the surge reached
}

// PredictiveResult covers several targets.
type PredictiveResult struct {
	Theta time.Duration
	Rows  []PredictiveRow
}

// PredictiveValidation runs the comparison across three targets with very
// different provisioning.
func PredictiveValidation(seed int64) (*PredictiveResult, error) {
	theta := 100 * time.Millisecond
	res := &PredictiveResult{Theta: theta}
	targets := []struct {
		name string
		cfg  websim.Config
		site *content.Site
		peak float64 // flash-crowd peak rate, requests/sec
	}{
		{"univ1 (weak)", websim.Univ1Config(), websim.Univ1Site(5), 400},
		{"qtnp (mid)", websim.QTNPConfig(), websim.QTSite(7), 2500},
		{"univ3 (base path)", websim.Univ3Config(), websim.Univ3Site(5), 2500},
	}
	// Each target's probe (a) and surge (b) are two independent simulations;
	// fan all 2×3 of them out as separate jobs and stitch rows afterwards.
	rows, err := parMap(len(targets)*2, func(i int) (PredictiveRow, error) {
		tgt := targets[i/2]
		row := PredictiveRow{Target: tgt.name}
		if i%2 == 0 {
			// (a) The MFC prediction on a fresh instance.
			mfcStop, err := baseStageStop(tgt.cfg, tgt.site, theta, seed)
			if err != nil {
				return row, fmt.Errorf("experiments: predictive MFC on %s: %w", tgt.name, err)
			}
			row.MFCStop = mfcStop
			return row, nil
		}
		// (b) The organic surge on another fresh instance.
		env := netsim.NewEnv(seed + 1)
		server := websim.NewServer(env, tgt.cfg, tgt.site)
		fc := websim.RunFlashCrowd(env, server, websim.FlashCrowdConfig{
			URL:      tgt.site.Base,
			Method:   "HEAD", // compare like with like: the Base stage probes HEAD handling
			PeakRate: tgt.peak,
			RampUp:   90 * time.Second,
			Hold:     30 * time.Second,
		})
		env.Run(0)
		row.ActualPoint = fc.DegradationPoint(theta, 5)
		row.PeakConc = fc.PeakConcurrency()
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(rows); i += 2 {
		merged := rows[i]
		merged.ActualPoint = rows[i+1].ActualPoint
		merged.PeakConc = rows[i+1].PeakConc
		res.Rows = append(res.Rows, merged)
	}
	return res, nil
}

// baseStageStop runs just the Base stage and returns its stopping crowd.
func baseStageStop(srvCfg websim.Config, site *content.Site, theta time.Duration, seed int64) (int, error) {
	cfg := core.DefaultConfig()
	cfg.Threshold = theta
	cfg.MaxCrowd = 85
	run, err := mfc.Run(context.Background(), mfc.SimTarget{
		Server: srvCfg, Site: site, Clients: 90, Seed: seed,
		NoAccessLog: true, MonitorPeriod: -1,
	}, cfg, mfc.WithStage(core.StageBase),
		traceOpt(fmt.Sprintf("predictive %s seed=%d", srvCfg.Name, seed)))
	if err != nil {
		return 0, err
	}
	return run.Result.Stages[0].StoppingCrowd, nil
}

// Render prints prediction vs reality.
func (r *PredictiveResult) Render() string {
	t := newTable(
		fmt.Sprintf("Predictive validation: MFC Base-stage stop vs actual flash-crowd degradation (θ=%v)", r.Theta),
		"target", "MFC stop", "flash-crowd degradation", "surge peak conc")
	for _, row := range r.Rows {
		t.addf("%s|%s|%s|%d", row.Target,
			stopStr(row.MFCStop > 0, row.MFCStop, 85),
			stopStr(row.ActualPoint > 0, row.ActualPoint, row.PeakConc),
			row.PeakConc)
	}
	return t.String()
}

// Headline reports each target's prediction and actual degradation point,
// named by the target's first word.
func (r *PredictiveResult) Headline() []Metric {
	var m []Metric
	for _, row := range r.Rows {
		name, _, _ := strings.Cut(row.Target, " ")
		m = append(m, Metric{name + "-mfc-stop", float64(row.MFCStop)}, Metric{name + "-actual-degradation", float64(row.ActualPoint)})
	}
	return m
}
