package analyze

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"mfc/internal/campaign"
	"mfc/internal/clock"
	"mfc/internal/obs"
)

// Live is the campaign's live surface: one HTTP handler serving
//
//	/metrics        Prometheus text exposition of the registry
//	/progress       the Tracker snapshot plus the store-wide done count
//	/analyze.json   the store's analytics document (Doc.JSON bytes)
//	/fleet.json     the Fleet snapshot
//	/               one self-refreshing HTML page over the three JSON feeds
//	/debug/pprof/*  the usual pprof handlers
//	/quit (POST)    releases WaitQuit — lets a harness end a -metrics-hold
//
// Session state (rates, ETAs, shard churn, worker timelines) comes from
// the Tracker and the Fleet. Everything store-wide — /analyze.json,
// /progress's store_done and store_total, and the
// mfc_campaign_store_jobs_{done,total} gauges — comes from one cached
// Compute of the store, so a view over one worker of a many-worker
// campaign still reports whole-campaign progress and the three cannot
// disagree. The first scan runs on the first request that needs it.
type Live struct {
	dir string
	tr  *campaign.Tracker
	clk clock.Clock
	mux *http.ServeMux

	quitOnce sync.Once
	quit     chan struct{}

	mu   sync.Mutex
	next time.Time // no rescan before this instant
	last *liveScan // last good scan; nil until one succeeds
}

// liveScan is what one Compute leaves for the surface.
type liveScan struct {
	done, total int
	doc         []byte // canonical Doc.JSON bytes
}

// minScanWindow is the shortest time a scan is served before the next.
const minScanWindow = 2 * time.Second

// scanWindow is how long a scan that took cost is served: at least
// minScanWindow, and four times the scan's own wall time, so the surface
// spends at most about a quarter of a core scanning on any store size.
func scanWindow(cost time.Duration) time.Duration { return max(minScanWindow, 4*cost) }

// NewLive builds the surface for the campaign in dir and registers the
// store gauges and the fleet's gauges on reg. It touches no file.
func NewLive(dir string, reg *obs.Registry, tr *campaign.Tracker, fleet *campaign.Fleet) *Live {
	l := &Live{dir: dir, tr: tr, clk: clock.Real, quit: make(chan struct{})}
	count := func(field func(*liveScan) int) func() float64 {
		return func() float64 {
			sc, _ := l.scan()
			if sc == nil {
				return 0
			}
			return float64(field(sc))
		}
	}
	reg.GaugeFunc("mfc_campaign_store_jobs_done",
		"Jobs with a record in the result store, across all workers (cached store scan).",
		count(func(sc *liveScan) int { return sc.done }))
	reg.GaugeFunc("mfc_campaign_store_jobs_total",
		"Jobs in the campaign plan.", count(func(sc *liveScan) int { return sc.total }))
	fleet.Register(reg)

	l.mux = http.NewServeMux()
	l.mux.Handle("/metrics", reg)
	l.mux.HandleFunc("/progress", l.serveProgress)
	l.mux.HandleFunc("/analyze.json", l.serveAnalyze)
	l.mux.HandleFunc("/fleet.json", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, fleet.Snapshot())
	})
	l.mux.HandleFunc("/quit", l.serveQuit)
	l.mux.HandleFunc("/debug/pprof/", pprof.Index)
	l.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	l.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	l.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	l.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	l.mux.HandleFunc("/{$}", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte(liveHTML))
	})
	return l
}

// ServeHTTP routes every endpoint above.
func (l *Live) ServeHTTP(w http.ResponseWriter, r *http.Request) { l.mux.ServeHTTP(w, r) }

// WaitQuit is closed by the first POST /quit.
func (l *Live) WaitQuit() <-chan struct{} { return l.quit }

// scan returns the last good scan, computing a new one once the window
// of the previous scan has passed. A scan that fails after one succeeded
// (a reader can race a shard rename) keeps the good one; until a scan
// succeeds, every call rescans and returns the error.
func (l *Live) scan() (*liveScan, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	start := l.clk.Now()
	if l.last != nil && start.Before(l.next) {
		return l.last, nil
	}
	sc, err := compute(l.dir)
	l.next = start.Add(scanWindow(l.clk.Now().Sub(start)))
	if err == nil {
		l.last = sc
	}
	if l.last == nil {
		return nil, err
	}
	return l.last, nil
}

func compute(dir string) (*liveScan, error) {
	a, err := Compute([]string{dir})
	if err != nil {
		return nil, err
	}
	doc, err := a.Doc().JSON()
	if err != nil {
		return nil, err
	}
	return &liveScan{done: a.Done, total: a.Plan.Jobs(), doc: doc}, nil
}

// progressDoc is the /progress body: the session snapshot plus the
// store-wide completion count (the scan the store gauges read).
type progressDoc struct {
	campaign.Progress
	StoreDone  int64  `json:"store_done"`
	StoreTotal int64  `json:"store_total"`
	ScanError  string `json:"scan_error,omitempty"`
}

func (l *Live) serveProgress(w http.ResponseWriter, _ *http.Request) {
	doc := progressDoc{Progress: l.tr.Snapshot()}
	if sc, err := l.scan(); sc != nil {
		doc.StoreDone, doc.StoreTotal = int64(sc.done), int64(sc.total)
	} else {
		doc.ScanError = err.Error()
	}
	writeJSON(w, doc)
}

func (l *Live) serveAnalyze(w http.ResponseWriter, _ *http.Request) {
	sc, err := l.scan()
	if sc == nil {
		http.Error(w, "analyze: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(sc.doc)
}

func (l *Live) serveQuit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	l.quitOnce.Do(func() { close(l.quit) })
	w.Write([]byte("quitting\n"))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// liveHTML is the one self-refreshing page: plain DOM, fetch and
// hand-built SVG, no external assets, so it works from a worker on an
// air-gapped host. The band and scenario tables fold /analyze.json's
// cells; the fleet section reads /fleet.json.
const liveHTML = `<!doctype html>
<html><head><meta charset="utf-8"><title>mfc campaign</title>
<style>
 body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem; max-width: 72rem; }
 h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.5rem; }
 .bar { background: #eee; border-radius: 3px; height: 1.1rem; overflow: hidden; }
 .bar > div { background: #4a90d9; height: 100%; transition: width .5s; }
 table { border-collapse: collapse; margin-top: .5rem; }
 td, th { padding: .15rem .7rem .15rem 0; text-align: left; font-variant-numeric: tabular-nums; }
 .meta { color: #666; } #err, .straggler { color: #b00; } .straggler { font-weight: 600; }
 svg { background: #fafafa; border: 1px solid #ddd; margin: .3rem 0; } .legend span { margin-right: 1rem; }
 .lane { position: relative; background: #f2f2f2; height: 1.05rem; width: 28rem; border-radius: 2px; }
 .lane div { position: absolute; top: 0; height: 100%; background: #4a90d9; border-radius: 2px; }
 .lane div.idle { background: #ccc; } .lane div.partial { background: #d97706; }
</style></head><body>
<h1>mfc campaign <span id="name"></span> <small><a href="#analytics">analytics</a> · <a href="#fleet">fleet</a></small></h1>
<div class="bar"><div id="overall" style="width:0"></div></div>
<p id="meta" class="meta">loading…</p><p id="err"></p>
<h2>bands</h2><table id="bands"></table>
<h2>verdicts by scenario</h2><table id="scenarios"></table>
<h2 id="analytics">cells</h2><p id="ameta" class="meta"></p><table id="cells"></table>
<h2>confusion (baseline-predicted vs observed)</h2><table id="confusion"></table>
<h2>response curves</h2><div id="curves"></div>
<h2 id="fleet">fleet workers</h2><p id="fmeta" class="meta"></p><table id="workers"></table>
<h2>active shards</h2><table id="active"></table>
<script>
const $ = id => document.getElementById(id);
const COLORS = ["#4a90d9", "#d94a4a", "#4ad98c", "#d9a84a", "#9a4ad9", "#555"];
const VERDICTS = ["Stopped", "NoStop", "Unavailable", "Aborted", "Error"];
function fmtETA(s) {
  if (s < 90) return Math.round(s) + "s";
  if (s < 5400) return Math.round(s/60) + "m";
  return (s/3600).toFixed(1) + "h";
}
function us(v) {
  if (!v) return "0";
  if (v < 1e3) return v + "µs";
  if (v < 1e6) return (v/1e3).toFixed(1) + "ms";
  return (v/1e6).toFixed(2) + "s";
}
// table fills #id with a header row and one row per array; a row's cls
// property, when set, becomes its class.
function table(id, head, rows) {
  $(id).innerHTML = "<tr><th>" + head.join("</th><th>") + "</th></tr>" + rows.map(r =>
    "<tr" + (r.cls ? ' class="' + r.cls + '"' : "") + "><td>" + r.join("</td><td>") + "</td></tr>").join("");
}
function curveSVG(group, cells, theta) {
  const W = 480, H = 180, PAD = 34;
  let maxX = 1, maxY = theta * 1.2;
  for (const c of cells) for (const p of c.curve) {
    maxX = Math.max(maxX, p.crowd); maxY = Math.max(maxY, p.quantile_ms.mean);
  }
  const sx = x => PAD + (W - PAD - 6) * x / maxX, sy = y => H - PAD + (PAD + 6 - H) * y / maxY;
  const line = (x1, y1, x2, y2, extra) =>
    '<line x1="' + x1 + '" y1="' + y1 + '" x2="' + x2 + '" y2="' + y2 + '" ' + extra + '/>';
  let s = '<svg width="' + W + '" height="' + H + '">' + line(PAD, H - PAD, W, H - PAD, 'stroke="#999"') +
    line(PAD, 0, PAD, H - PAD, 'stroke="#999"') + line(PAD, sy(theta), W, sy(theta), 'stroke="#b00" stroke-dasharray="4 3"') +
    '<text x="' + (PAD + 4) + '" y="' + (sy(theta) - 3) + '" fill="#b00" font-size="10">theta=' + theta + 'ms</text>' +
    '<text x="2" y="10" font-size="10">' + maxY.toFixed(0) + 'ms</text>' +
    '<text x="' + (W - 20) + '" y="' + (H - PAD + 12) + '" font-size="10">' + maxX + '</text>';
  let legend = '<div class="legend">';
  cells.forEach((c, i) => {
    const color = COLORS[i % COLORS.length];
    s += '<polyline points="' + c.curve.map(p => sx(p.crowd) + "," + sy(p.quantile_ms.mean)).join(" ") +
      '" fill="none" stroke="' + color + '" stroke-width="1.5"/>';
    legend += '<span style="color:' + color + '">&#9632; ' + (c.scenario || "clean") +
      (c.knee_crowd ? " (knee " + c.knee_crowd + ")" : "") + '</span>';
  });
  return '<h3 style="font-size:1rem;margin-bottom:0">' + group + '</h3>' + s + '</svg>' + legend + '</div>';
}
function progress(p, d) {
  $("name").textContent = d.campaign || "";
  const done = p.store_done, total = p.store_total || p.total;
  $("overall").style.width = total ? (100 * done / total) + "%" : "0";
  let meta = done + "/" + total + " jobs";
  if (p.done_earlier) meta += " (+" + p.done_earlier + " earlier)";
  meta += " · session " + p.done_session + " done, " + p.epochs + " epochs";
  if (p.rate_jobs_per_second) meta += " · " + p.rate_jobs_per_second.toFixed(2) + " jobs/s";
  if (p.eta_seconds) meta += " · eta " + fmtETA(p.eta_seconds);
  if (p.shards_claimed) meta += " · shards " + p.shards_sealed + "/" + p.shards_claimed;
  $("meta").textContent = meta;
  const bands = new Map(), scens = new Map();
  for (const c of d.cells || []) {
    const b = bands.get(c.band) || {done: 0, total: 0}, s = scens.get(c.scenario || "clean") || {};
    b.done += c.n; b.total += d.sites_per_cell;
    for (const n of VERDICTS) s[n] = (s[n] || 0) + (c.verdicts[n] || 0);
    bands.set(c.band, b); scens.set(c.scenario || "clean", s);
  }
  table("bands", ["band", "done", "total", ""], [...bands].map(([k, b]) =>
    [k, b.done, b.total, b.total ? (100 * b.done / b.total).toFixed(1) + "%" : ""]));
  table("scenarios", ["scenario", ...VERDICTS], [...scens].map(([k, s]) => [k, ...VERDICTS.map(n => s[n])]));
}
function analytics(d) {
  const cells = d.cells || [];
  $("ameta").textContent = d.campaign === undefined ? "" : d.done_jobs + "/" + d.total_jobs + " jobs" +
    (d.complete ? "" : " (incomplete)") + " · " + cells.length + " cells · theta " + d.threshold_ms + "ms";
  table("cells", ["cell", "n", "measured", "Stopped", "NoStop", "knee", "stop p50", "err%"], cells.map(c => [
    c.band + "/" + c.stage + (c.scenario ? "/" + c.scenario : ""), c.n, c.measured, c.verdicts.Stopped || 0,
    c.verdicts.NoStop || 0, c.knee_crowd || "–", c.stop_p50 || "–", (100 * c.requests.error_rate).toFixed(2)]));
  table("confusion", ["cell", "sites", "agree", "evaded", "false-stop"], (d.confusion || []).map(cf =>
    [cf.band + "/" + cf.stage + "/" + cf.scenario, cf.sites, cf.agree, cf.evaded, cf.false_stop]));
  const groups = new Map();
  for (const c of cells.filter(c => (c.curve || []).length)) {
    const k = c.band + "/" + c.stage;
    groups.set(k, [...(groups.get(k) || []), c]);
  }
  $("curves").innerHTML = [...groups].map(([k, cs]) => curveSVG(k, cs, d.threshold_ms)).join("") || "no curves yet";
}
function fleet(f) {
  const workers = f.workers || [];
  $("fmeta").textContent = workers.length + " workers · shard p50 " + us(f.shard_p50_us) + " p99 " +
    us(f.shard_p99_us) + " · job p50 " + us(f.job_p50_us) + " p99 " + us(f.job_p99_us) +
    " · stragglers " + f.stragglers + " (k=" + f.straggler_k +
    (f.straggler_threshold_us ? ", threshold " + us(f.straggler_threshold_us) : ", warming up") + ")";
  let lo = Infinity, hi = 0;
  for (const w of workers) for (const s of w.timeline || []) {
    lo = Math.min(lo, s.start_us); hi = Math.max(hi, s.end_us);
  }
  const span = Math.max(hi - lo, 1);
  const lane = w => '<div class="lane">' + (w.timeline || []).map(s =>
    '<div class="' + (s.shard < 0 ? "idle" : s.partial ? "partial" : "") + '" style="left:' +
    (100 * (s.start_us - lo) / span).toFixed(2) + "%;width:" +
    Math.max(100 * (s.end_us - s.start_us) / span, 0.4).toFixed(2) + '%" title="' +
    (s.shard < 0 ? "idle" : "shard " + s.shard) + '"></div>').join("") + "</div>";
  table("workers", ["worker", "shards", "jobs", "busy", "timeline (busy/idle)"], workers.map(w =>
    [w.name, w.shards_done, w.jobs_done, us(w.busy_us), lane(w)]));
  table("active", ["shard", "worker", "age", ""], (f.active || []).map(a => Object.assign(
    [a.shard, a.worker, us(a.age_us), a.straggler ? "STRAGGLER" : ""], {cls: a.straggler ? "straggler" : ""})));
}
async function tick() {
  try {
    const [p, d, f] = await Promise.all(["/progress", "/analyze.json", "/fleet.json"].map(u =>
      fetch(u).then(r => r.ok ? r.json() : {})));
    progress(p, d); analytics(d); fleet(f);
    $("err").textContent = p.scan_error || "";
  } catch (e) {
    $("err").textContent = String(e);
  }
}
tick(); setInterval(tick, 2000);
</script></body></html>
`
