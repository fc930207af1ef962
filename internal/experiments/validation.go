package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"mfc"
	"mfc/internal/core"
	"mfc/internal/stats"
	"mfc/internal/websim"
)

// ---------------------------------------------------------------------------
// Figure 3 — synchronization: arrival times at the target for one 45-client
// crowd.
// ---------------------------------------------------------------------------

// Figure3Result holds the per-request arrival offsets of a synchronized
// crowd, relative to the earliest arrival.
type Figure3Result struct {
	Crowd    int
	Offsets  []time.Duration // sorted ascending
	Spread70 time.Duration   // width of the middle 70%
	Spread90 time.Duration   // width of the middle 90%
}

// Figure3 runs a single 45-client synchronized epoch against the validation
// server with PlanetLab-like clients and reads the target's access log,
// exactly as §3.1 does.
func Figure3(seed int64) (*Figure3Result, error) {
	const crowd = 45
	srvCfg := websim.ValidationConfig(websim.LinearModel{Slope: 0})
	site := websim.ValidationSite()

	cfg := core.DefaultConfig()
	cfg.Step = crowd
	cfg.MaxCrowd = crowd
	cfg.MinClients = crowd
	cfg.Threshold = time.Hour // never stop: one clean epoch
	run, err := mfc.Run(context.Background(), mfc.SimTarget{
		Server: srvCfg, Site: site, Clients: 65, Seed: seed, MonitorPeriod: -1,
	}, cfg, mfc.WithStage(core.StageBase),
		traceOpt(fmt.Sprintf("figure3 seed=%d", seed)))
	if err != nil {
		return nil, err
	}
	sr := run.Result.Stages[0]
	if len(sr.Epochs) == 0 {
		return nil, fmt.Errorf("experiments: figure3 produced no epochs")
	}

	var arrivals []time.Duration
	for _, a := range run.Server.AccessLog() {
		if a.Tag == "mfc" {
			arrivals = append(arrivals, a.At)
		}
	}
	if len(arrivals) == 0 {
		return nil, fmt.Errorf("experiments: figure3 logged no MFC arrivals")
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i] < arrivals[j] })
	res := &Figure3Result{Crowd: crowd}
	first := arrivals[0]
	for _, a := range arrivals {
		res.Offsets = append(res.Offsets, a-first)
	}
	res.Spread70 = spreadMiddle(res.Offsets, 0.70)
	res.Spread90 = spreadMiddle(res.Offsets, 0.90)
	return res, nil
}

func spreadMiddle(sorted []time.Duration, frac float64) time.Duration {
	lo := stats.QuantileDuration(sorted, (1-frac)/2)
	hi := stats.QuantileDuration(sorted, 1-(1-frac)/2)
	return hi - lo
}

// Render prints the arrival series (client index vs arrival offset).
func (r *Figure3Result) Render() string {
	t := newTable(
		fmt.Sprintf("Figure 3: request arrival times at target, crowd=%d (paper: 70%% within 5ms, 90%% within 30ms)", r.Crowd),
		"req#", "arrival offset (ms)")
	for i, off := range r.Offsets {
		t.addf("%d|%s", i+1, ms(off))
	}
	t.addf("spread(70%%)|%s", ms(r.Spread70))
	t.addf("spread(90%%)|%s", ms(r.Spread90))
	return t.String()
}

// Headline reports the two spreads the paper quotes.
func (r *Figure3Result) Headline() []Metric {
	return []Metric{{"spread70-ms", msf(r.Spread70)}, {"spread90-ms", msf(r.Spread90)}}
}

// ---------------------------------------------------------------------------
// Figure 4 — tracking synthetic response-time functions.
// ---------------------------------------------------------------------------

// TrackPoint is one crowd's ideal vs. measured normalized response time.
type TrackPoint struct {
	Crowd    int
	Ideal    time.Duration
	Measured time.Duration
}

// Figure4Result holds one model's tracking series.
type Figure4Result struct {
	Model  string
	Points []TrackPoint
	// MaxAbsErr and MeanAbsErr summarize tracking fidelity.
	MaxAbsErr  time.Duration
	MeanAbsErr time.Duration
}

// Figure4Linear is Figure 4(a): a 5 ms/client linear model.
func Figure4Linear(seed int64) (*Figure4Result, error) {
	return Figure4(websim.LinearModel{Slope: 5 * time.Millisecond}, seed)
}

// Figure4Exponential is Figure 4(b): 15 ms doubling every 10 clients.
func Figure4Exponential(seed int64) (*Figure4Result, error) {
	return Figure4(websim.ExponentialModel{Unit: 15 * time.Millisecond, Doubling: 10}, seed)
}

// Figure4 measures how faithfully the MFC median tracks a synthetic
// response-time model as the crowd grows 5..60 (§3.1, Figure 4).
func Figure4(model websim.SyntheticModel, seed int64) (*Figure4Result, error) {
	cfg := core.DefaultConfig()
	cfg.Step = 5
	cfg.MaxCrowd = 60
	cfg.MinClients = 50
	cfg.Threshold = time.Hour // trace the whole curve
	run, err := mfc.Run(context.Background(), mfc.SimTarget{
		Server: websim.ValidationConfig(model), Site: websim.ValidationSite(),
		Clients: 65, Seed: seed, NoAccessLog: true, MonitorPeriod: -1,
	}, cfg, mfc.WithStage(core.StageBase),
		traceOpt(fmt.Sprintf("figure4 seed=%d", seed)))
	if err != nil {
		return nil, err
	}
	sr := run.Result.Stages[0]

	res := &Figure4Result{Model: model.Name()}
	var totalErr time.Duration
	crowds, medians := sr.CurveMedians()
	for i, n := range crowds {
		ideal := model.Delay(n)
		p := TrackPoint{Crowd: n, Ideal: ideal, Measured: medians[i]}
		res.Points = append(res.Points, p)
		err := p.Measured - p.Ideal
		if err < 0 {
			err = -err
		}
		totalErr += err
		if err > res.MaxAbsErr {
			res.MaxAbsErr = err
		}
	}
	if len(res.Points) > 0 {
		res.MeanAbsErr = totalErr / time.Duration(len(res.Points))
	}
	return res, nil
}

// Render prints the ideal-vs-measured series.
func (r *Figure4Result) Render() string {
	t := newTable(
		fmt.Sprintf("Figure 4 (%s): median normalized response time vs crowd size", r.Model),
		"crowd", "ideal (ms)", "measured (ms)")
	for _, p := range r.Points {
		t.addf("%d|%s|%s", p.Crowd, ms(p.Ideal), ms(p.Measured))
	}
	t.addf("mean abs err|%s|", ms(r.MeanAbsErr))
	return t.String()
}

// Headline reports the mean absolute tracking error.
func (r *Figure4Result) Headline() []Metric {
	return []Metric{{"track-err-ms", msf(r.MeanAbsErr)}}
}

// ---------------------------------------------------------------------------
// Figure 5 — Large Object stage on the lab server: response time and
// network usage vs crowd size, with CPU/memory/disk staying idle.
// ---------------------------------------------------------------------------

// ResourcePoint is one crowd's client-visible and server-side readings.
type ResourcePoint struct {
	Crowd      int
	MedianResp time.Duration
	NetKBs     float64 // outbound KB/s during the epoch window
	CPUUtil    float64 // 0..1
	MemMB      float64
	DiskUtil   float64
}

// Figure5Result is the lab Large Object run.
type Figure5Result struct {
	Points []ResourcePoint
}

// Figure5 reproduces the §3.2 large-object workload: 50 LAN clients fetch
// the same 100 KB object over a 100 Mbit access link.
func Figure5(seed int64) (*Figure5Result, error) {
	run, err := labRun(core.StageLargeObject, websim.BackendMongrel, seed)
	if err != nil {
		return nil, err
	}
	return &Figure5Result{Points: run}, nil
}

// Render prints the two Figure 5 series plus the idle resources.
func (r *Figure5Result) Render() string {
	t := newTable(
		"Figure 5: same 100KB large object (paper: response time rises to ~400ms at 50; CPU/mem/disk negligible)",
		"crowd", "median resp (ms)", "net (KB/s)", "cpu", "mem (MB)", "disk")
	for _, p := range r.Points {
		t.addf("%d|%s|%.0f|%.2f|%.0f|%.2f", p.Crowd, ms(p.MedianResp), p.NetKBs, p.CPUUtil, p.MemMB, p.DiskUtil)
	}
	return t.String()
}

// Headline reports the median response at the largest crowd.
func (r *Figure5Result) Headline() []Metric {
	return []Metric{{"median-at-50-ms", msf(r.Points[len(r.Points)-1].MedianResp)}}
}

// ---------------------------------------------------------------------------
// Figure 6 — Small Query stage under FastCGI (memory blow-up) vs Mongrel
// (flat).
// ---------------------------------------------------------------------------

// Figure6Result contrasts the two backends.
type Figure6Result struct {
	FastCGI []ResourcePoint
	Mongrel []ResourcePoint
}

// Figure6 reproduces the §3.2 small-query workload under both backends.
// The two lab runs are independent simulations and share the worker pool.
func Figure6(seed int64) (*Figure6Result, error) {
	backends := []websim.Backend{websim.BackendFastCGI, websim.BackendMongrel}
	runs, err := parMap(len(backends), func(i int) ([]ResourcePoint, error) {
		return labRun(core.StageSmallQuery, backends[i], seed)
	})
	if err != nil {
		return nil, err
	}
	return &Figure6Result{FastCGI: runs[0], Mongrel: runs[1]}, nil
}

// Render prints both backends' series.
func (r *Figure6Result) Render() string {
	t := newTable(
		"Figure 6: small query via FastCGI (paper: memory grows ~linearly, response blows up) vs Mongrel (flat <10ms)",
		"crowd", "fcgi resp (ms)", "fcgi cpu", "fcgi mem (MB)", "mongrel resp (ms)", "mongrel mem (MB)")
	for i := range r.FastCGI {
		f := r.FastCGI[i]
		var m ResourcePoint
		if i < len(r.Mongrel) {
			m = r.Mongrel[i]
		}
		t.addf("%d|%s|%.2f|%.0f|%s|%.0f", f.Crowd, ms(f.MedianResp), f.CPUUtil, f.MemMB, ms(m.MedianResp), m.MemMB)
	}
	return t.String()
}

// Headline reports both backends at the largest crowd.
func (r *Figure6Result) Headline() []Metric {
	f, m := r.FastCGI[len(r.FastCGI)-1], r.Mongrel[len(r.Mongrel)-1]
	return []Metric{
		{"fcgi-at-50-ms", msf(f.MedianResp)}, {"mongrel-at-50-ms", msf(m.MedianResp)}, {"fcgi-peak-MB", f.MemMB},
	}
}

// labRun executes one §3.2 lab stage (LAN clients, max 50, full curve) and
// correlates each epoch with the atop-style monitor window.
func labRun(stage core.Stage, backend websim.Backend, seed int64) ([]ResourcePoint, error) {
	cfg := core.DefaultConfig()
	cfg.Step = 5
	cfg.MaxCrowd = 50
	cfg.MinClients = 50
	cfg.Threshold = time.Hour
	run, err := mfc.Run(context.Background(), mfc.SimTarget{
		Server: websim.LabConfig(backend), Site: websim.LabSite(),
		Clients: 55, LAN: true, Seed: seed, NoAccessLog: true,
		MonitorPeriod: 100 * time.Millisecond,
	}, cfg, mfc.WithStage(stage),
		traceOpt(fmt.Sprintf("lab %v backend=%v seed=%d", stage, backend, seed)))
	if err != nil {
		return nil, err
	}
	sr := run.Result.Stages[0]

	var out []ResourcePoint
	for _, e := range sr.Epochs {
		if e.Kind != core.EpochRamp {
			continue
		}
		w := run.Monitor.Window(e.ArriveAt-time.Second, e.ArriveAt+3*time.Second)
		out = append(out, ResourcePoint{
			Crowd:      e.Crowd,
			MedianResp: e.NormMedian,
			NetKBs:     w.NetBytesPerSec / 1024,
			CPUUtil:    w.CPUUtil,
			MemMB:      float64(w.ResidentBytes) / (1 << 20),
			DiskUtil:   w.DiskUtil,
		})
	}
	return out, nil
}
