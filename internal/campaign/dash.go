package campaign

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"mfc/internal/obs"
)

// Dash is the campaign observability surface: one HTTP handler serving
//
//	/metrics        Prometheus text exposition of the registry
//	/progress       this session's Tracker snapshot + store-wide done count
//	/dashboard.json store-wide per-band progress and per-scenario verdicts
//	/               self-refreshing HTML dashboard over the two JSON feeds
//	/debug/pprof/*  the usual pprof handlers
//	/quit (POST)    releases WaitQuit — lets a harness end a -metrics-hold
//
// Session state (rates, ETAs, shard churn) comes from the Tracker; overall
// completion comes from debounced store scans, so a dashboard over one
// worker of a many-worker campaign still reports whole-campaign progress.
// Scans stream shard by shard through Summarize's mergeable aggregates —
// memory stays bounded however many sites the campaign holds.
type Dash struct {
	reg *obs.Registry
	tr  *Tracker

	quitOnce sync.Once
	quit     chan struct{}

	// extra handlers mounted by Mount before Handler is built (the
	// analyze surface lives in a package that imports this one, so it
	// cannot be wired here directly).
	extra []mountedHandler

	store Snapshot[*storeScan] // debounced store scan
}

// storeScan is one Summarize of the store.
type storeScan struct {
	plan *Plan
	sum  *Summary
}

// NewDash builds the surface for the campaign in dir. The store-wide
// completion gauges (mfc_campaign_store_jobs_done / _total) are registered
// on reg as scrape-time functions over the same debounced scan the JSON
// endpoints read.
func NewDash(dir string, reg *obs.Registry, tr *Tracker) *Dash {
	d := &Dash{reg: reg, tr: tr, quit: make(chan struct{})}
	d.store.Debounce = time.Second
	d.store.Scan = func() (*storeScan, error) {
		plan, sum, err := Summarize(dir)
		if err != nil {
			return nil, err
		}
		return &storeScan{plan, sum}, nil
	}
	reg.GaugeFunc("mfc_campaign_store_jobs_done",
		"Jobs with a record in the result store, across all workers (debounced scan).",
		func() float64 {
			_, sum, _ := d.scan()
			if sum == nil {
				return 0
			}
			return float64(sum.Done)
		})
	reg.GaugeFunc("mfc_campaign_store_jobs_total",
		"Jobs in the campaign plan.", func() float64 {
			plan, _, _ := d.scan()
			if plan == nil {
				return 0
			}
			return float64(plan.Jobs())
		})
	return d
}

// scan returns the debounced store summary (nil, nil until a scan succeeds).
func (d *Dash) scan() (*Plan, *Summary, error) {
	sc, err := d.store.Get()
	if sc == nil {
		return nil, nil, err
	}
	return sc.plan, sc.sum, nil
}

// WaitQuit blocks until a POST /quit arrives or ctx-free callers close it.
func (d *Dash) WaitQuit() <-chan struct{} { return d.quit }

type mountedHandler struct {
	pattern string
	h       http.Handler
}

// Mount registers an extra handler on the dashboard mux — the hook the
// analyze surface uses to serve /analyze.json and /analyze next to the
// progress endpoints. Call before Handler; later mounts of the same
// pattern would panic inside ServeMux just like duplicate HandleFuncs.
func (d *Dash) Mount(pattern string, h http.Handler) {
	d.extra = append(d.extra, mountedHandler{pattern, h})
}

// Handler returns the mux serving every endpoint above.
func (d *Dash) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", d.reg)
	mux.HandleFunc("/progress", d.serveProgress)
	mux.HandleFunc("/dashboard.json", d.serveDashboardJSON)
	mux.HandleFunc("/quit", d.serveQuit)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, m := range d.extra {
		mux.Handle(m.pattern, m.h)
	}
	mux.HandleFunc("/", d.serveIndex)
	return mux
}

// ServeUntil runs an http.Server for h on ln until ctx is canceled, then
// drains it via http.Server.Shutdown (bounded by a short grace period)
// and waits for the serve goroutine to exit, so no goroutine outlives the
// call. A clean shutdown returns nil; an accept failure returns the
// server error.
func ServeUntil(ctx context.Context, ln net.Listener, h http.Handler) error {
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err // the listener died on its own; nothing to shut down
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := srv.Shutdown(sctx)
	<-errc // always http.ErrServerClosed after Shutdown
	return err
}

// progressDoc is the /progress body: the session snapshot plus the
// store-wide completion count (identical source as the store gauges).
type progressDoc struct {
	Progress
	StoreDone  int64  `json:"store_done"`
	StoreTotal int64  `json:"store_total"`
	ScanError  string `json:"scan_error,omitempty"`
}

func (d *Dash) serveProgress(w http.ResponseWriter, _ *http.Request) {
	doc := progressDoc{Progress: d.tr.Snapshot()}
	plan, sum, err := d.scan()
	if sum != nil {
		doc.StoreDone = int64(sum.Done)
	}
	if plan != nil {
		doc.StoreTotal = int64(plan.Jobs())
	}
	if err != nil {
		doc.ScanError = err.Error()
	}
	writeJSON(w, doc)
}

// dashCell is one plan cell's slice of /dashboard.json.
type dashCell struct {
	Band     string           `json:"band"`
	Stage    string           `json:"stage"`
	Scenario string           `json:"scenario,omitempty"`
	N        int              `json:"n"`
	Measured int64            `json:"measured"`
	Verdicts map[string]int64 `json:"verdicts"`
	Stopped  float64          `json:"stopped_fraction"`
}

type dashBand struct {
	Band  string `json:"band"`
	Done  int64  `json:"done"`
	Total int64  `json:"total"`
}

type dashScenario struct {
	Scenario string           `json:"scenario"`
	Verdicts map[string]int64 `json:"verdicts"`
}

type dashboardDoc struct {
	Name      string         `json:"name"`
	Total     int            `json:"total"`
	Done      int            `json:"done"`
	Bands     []dashBand     `json:"bands"`
	Scenarios []dashScenario `json:"scenarios"`
	Cells     []dashCell     `json:"cells"`
	ScanError string         `json:"scan_error,omitempty"`
}

func (d *Dash) serveDashboardJSON(w http.ResponseWriter, _ *http.Request) {
	plan, sum, err := d.scan()
	if plan == nil {
		doc := dashboardDoc{}
		if err != nil {
			doc.ScanError = err.Error()
		}
		writeJSON(w, doc)
		return
	}
	doc := dashboardDoc{Name: plan.Name, Total: plan.Jobs(), Done: sum.Done}
	bandIdx := map[string]int{}
	scenIdx := map[string]int{}
	for ci, cell := range plan.Cells {
		c := sum.Cells[ci]
		verdicts := map[string]int64{}
		for i, name := range verdictNames {
			verdicts[name] = c.Verdicts[i]
		}
		scen := cell.Scenario
		if scen == "" {
			scen = "clean"
		}
		doc.Cells = append(doc.Cells, dashCell{
			Band: cell.Band, Stage: cell.Stage, Scenario: cell.Scenario,
			N: c.N, Measured: c.Measured(), Verdicts: verdicts,
			Stopped: c.StoppedFraction(),
		})
		bi, ok := bandIdx[cell.Band]
		if !ok {
			bi = len(doc.Bands)
			bandIdx[cell.Band] = bi
			doc.Bands = append(doc.Bands, dashBand{Band: cell.Band})
		}
		doc.Bands[bi].Done += int64(c.N)
		doc.Bands[bi].Total += int64(plan.Sites)
		si, ok := scenIdx[scen]
		if !ok {
			si = len(doc.Scenarios)
			scenIdx[scen] = si
			doc.Scenarios = append(doc.Scenarios, dashScenario{Scenario: scen, Verdicts: map[string]int64{}})
		}
		for name, n := range verdicts {
			doc.Scenarios[si].Verdicts[name] += n
		}
	}
	writeJSON(w, doc)
}

func (d *Dash) serveQuit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	d.quitOnce.Do(func() { close(d.quit) })
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("quitting\n"))
}

func (d *Dash) serveIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(dashboardHTML))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// dashboardHTML is the self-refreshing dashboard: plain DOM + fetch, no
// external assets, so it works from a worker on an air-gapped host.
const dashboardHTML = `<!doctype html>
<html><head><meta charset="utf-8"><title>mfc campaign</title>
<style>
 body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem; max-width: 64rem; }
 h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.5rem; }
 .bar { background: #eee; border-radius: 3px; height: 1.1rem; overflow: hidden; }
 .bar > div { background: #4a90d9; height: 100%; transition: width .5s; }
 table { border-collapse: collapse; margin-top: .5rem; }
 td, th { padding: .15rem .7rem .15rem 0; text-align: left; font-variant-numeric: tabular-nums; }
 #meta, #err { color: #666; } #err { color: #b00; }
</style></head><body>
<h1>mfc campaign <span id="name"></span> <small><a href="/analyze">analytics</a> · <a href="/fleet">fleet</a></small></h1>
<div class="bar"><div id="overall" style="width:0"></div></div>
<p id="meta">loading…</p><p id="err"></p>
<h2>bands</h2><table id="bands"></table>
<h2>verdicts by scenario</h2><table id="scenarios"></table>
<script>
function fmtETA(s) {
  if (!s) return "";
  if (s < 90) return Math.round(s) + "s";
  if (s < 5400) return Math.round(s/60) + "m";
  return (s/3600).toFixed(1) + "h";
}
async function tick() {
  try {
    const [p, d] = await Promise.all([
      fetch("/progress").then(r => r.json()),
      fetch("/dashboard.json").then(r => r.json()),
    ]);
    document.getElementById("name").textContent = d.name || "";
    const done = p.store_done, total = p.store_total || p.total;
    document.getElementById("overall").style.width =
      total ? (100 * done / total) + "%" : "0";
    let meta = done + "/" + total + " jobs";
    if (p.done_earlier) meta += " (+" + p.done_earlier + " earlier)";
    meta += " · session " + p.done_session + " done, " + p.epochs + " epochs";
    if (p.rate_jobs_per_second) meta += " · " + p.rate_jobs_per_second.toFixed(2) + " jobs/s";
    if (p.eta_seconds) meta += " · eta " + fmtETA(p.eta_seconds);
    if (p.shards_claimed) meta += " · shards " + p.shards_sealed + "/" + p.shards_claimed;
    document.getElementById("meta").textContent = meta;
    document.getElementById("err").textContent = p.scan_error || d.scan_error || "";
    const bands = document.getElementById("bands");
    bands.innerHTML = "<tr><th>band</th><th>done</th><th>total</th><th></th></tr>";
    for (const b of d.bands || []) {
      const pct = b.total ? (100 * b.done / b.total).toFixed(1) + "%" : "";
      bands.innerHTML += "<tr><td>" + b.band + "</td><td>" + b.done +
        "</td><td>" + b.total + "</td><td>" + pct + "</td></tr>";
    }
    const scen = document.getElementById("scenarios");
    let head = "<tr><th>scenario</th>", names = ["Stopped","NoStop","Unavailable","Aborted","Error"];
    for (const n of names) head += "<th>" + n + "</th>";
    scen.innerHTML = head + "</tr>";
    for (const s of d.scenarios || []) {
      let row = "<tr><td>" + s.scenario + "</td>";
      for (const n of names) row += "<td>" + (s.verdicts[n] || 0) + "</td>";
      scen.innerHTML += row + "</tr>";
    }
  } catch (e) {
    document.getElementById("err").textContent = String(e);
  }
}
tick(); setInterval(tick, 2000);
</script></body></html>
`
