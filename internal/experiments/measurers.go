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

// ---------------------------------------------------------------------------
// Extension: measurers (§6) — independent clients probe a *different*
// request type while the crowd loads one resource, quantifying
// cross-resource correlations ("how does a disk/bandwidth-intensive
// workload impact the response time of a database-intensive request?").
// ---------------------------------------------------------------------------

// MeasurerPoint is one epoch of the correlation probe.
type MeasurerPoint struct {
	Crowd         int
	CrowdMedian   time.Duration // the crowd's own normalized median
	QueryMeasurer time.Duration // measurer probing the query path
	BaseMeasurer  time.Duration // measurer probing basic HTTP handling
}

// MeasurerResult is one crowd-stage's correlation series.
type MeasurerResult struct {
	Name       string // "indep" or "shared": which of the two targets
	CrowdStage core.Stage
	Points     []MeasurerPoint
}

// ExtensionMeasurers loads the lab server with a Large Object crowd
// (bandwidth-bound) while measurers probe the query and base paths each
// epoch. On this target the paths share only the CPU, which the Large
// Object stage leaves idle — so the measurers stay flat while the crowd's
// own response time climbs: the resources are independent. Contrast
// ExtensionMeasurersShared.
func ExtensionMeasurers(seed int64) (*MeasurerResult, error) {
	return measurerRun("indep", websim.LabConfig(websim.BackendMongrel), websim.LabSite(),
		core.StageLargeObject, seed)
}

// ExtensionMeasurersShared loads a CPU-bound target (every path burns the
// same core) with a Base-stage crowd; the query measurer degrades together
// with the crowd — a positive cross-resource correlation the operator
// should know about.
func ExtensionMeasurersShared(seed int64) (*MeasurerResult, error) {
	cfg := websim.Config{
		Name:            "cpu-shared",
		AccessBandwidth: 125e6,
		Workers:         512,
		Backlog:         512,
		Cores:           1,
		ParseCPU:        6 * time.Millisecond, // every request burns the shared core
		QueryCPU:        6 * time.Millisecond,
		QueryCacheBytes: -1,
		DBConns:         64,
	}
	return measurerRun("shared", cfg, websim.LabSite(), core.StageBase, seed)
}

func measurerRun(name string, srvCfg websim.Config, site *content.Site, crowdStage core.Stage, seed int64) (*MeasurerResult, error) {
	cfg := core.DefaultConfig()
	cfg.Step = 5
	cfg.MaxCrowd = 50
	cfg.MinClients = 50
	cfg.Threshold = time.Hour // full curve
	cfg.Measurers = []core.Request{
		{Method: "GET", URL: "/query.cgi?stats=1"},
		{Method: "HEAD", URL: "/index.html"},
	}
	cfg.MeasurerReplicas = 3

	run, err := mfc.Run(context.Background(), mfc.SimTarget{
		Server: srvCfg, Site: site, Clients: 70, LAN: true, Seed: seed,
		NoAccessLog: true, MonitorPeriod: -1,
	}, cfg, mfc.WithStage(crowdStage),
		traceOpt(fmt.Sprintf("measurers %v seed=%d", crowdStage, seed)))
	if err != nil {
		return nil, err
	}
	sr := run.Result.Stages[0]

	res := &MeasurerResult{Name: name, CrowdStage: crowdStage}
	for _, e := range sr.Epochs {
		if e.Kind != core.EpochRamp {
			continue
		}
		res.Points = append(res.Points, MeasurerPoint{
			Crowd:         e.Crowd,
			CrowdMedian:   e.NormMedian,
			QueryMeasurer: e.MeasurerMedians["/query.cgi?stats=1"],
			BaseMeasurer:  e.MeasurerMedians["/index.html"],
		})
	}
	return res, nil
}

// Render prints the correlation series.
func (r *MeasurerResult) Render() string {
	t := newTable(
		"Extension: measurers (§6) — crowd stage "+r.CrowdStage.String()+
			"; measurers probe the query and base paths each epoch",
		"crowd", "crowd median (ms)", "query measurer (ms)", "base measurer (ms)")
	for _, p := range r.Points {
		t.addf("%d|%s|%s|%s", p.Crowd, ms(p.CrowdMedian), ms(p.QueryMeasurer), ms(p.BaseMeasurer))
	}
	return t.String()
}

// Final returns the last point (largest crowd).
func (r *MeasurerResult) Final() MeasurerPoint {
	if len(r.Points) == 0 {
		return MeasurerPoint{}
	}
	return r.Points[len(r.Points)-1]
}

// Headline reports the query measurer at the largest crowd.
func (r *MeasurerResult) Headline() []Metric {
	return []Metric{{r.Name + "-query-ms", msf(r.Final().QueryMeasurer)}}
}
