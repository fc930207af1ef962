package analyze

import (
	"net/http"
	"time"

	"mfc/internal/campaign"
)

// Web is the live analytics surface: /analyze.json serves the current
// Doc, /analyze the self-refreshing HTML view over it. Scans are
// debounced like the Dash's (campaign.Snapshot) — a full analytics scan
// decodes every Result payload, so it is noticeably heavier than the
// report fold. Mount both routes on a campaign.Dash (or any mux) via
// Handler.
type Web struct {
	doc campaign.Snapshot[[]byte] // canonical Doc.JSON bytes
}

// NewWeb builds the surface over one or many store dirs of the same
// plan. debounce <= 0 defaults to 5s.
func NewWeb(dirs []string, debounce time.Duration) *Web {
	if debounce <= 0 {
		debounce = 5 * time.Second
	}
	wb := &Web{}
	wb.doc.Debounce = debounce
	wb.doc.Scan = func() ([]byte, error) {
		a, err := Compute(dirs)
		if err != nil {
			return nil, err
		}
		return a.Doc().JSON()
	}
	return wb
}

// ServeHTTP routes /analyze.json and /analyze.
func (wb *Web) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/analyze.json":
		doc, err := wb.doc.Get()
		if doc == nil {
			http.Error(w, "analyze: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(doc)
	case "/analyze":
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte(analyzeHTML))
	default:
		http.NotFound(w, r)
	}
}

// Mounter is the subset of campaign.Dash the surface needs — kept as an
// interface so this package stays importable from the serve layer
// without a dependency knot.
type Mounter interface {
	Mount(pattern string, h http.Handler)
}

// MountOn wires both analyze routes onto a dashboard mux.
func (wb *Web) MountOn(m Mounter) {
	m.Mount("/analyze.json", wb)
	m.Mount("/analyze", wb)
}

// analyzeHTML is the self-refreshing analytics view: plain DOM + fetch +
// hand-built SVG polylines, no external assets — same idiom as the
// campaign dashboard, so it works from a worker on an air-gapped host.
const analyzeHTML = `<!doctype html>
<html><head><meta charset="utf-8"><title>mfc campaign analytics</title>
<style>
 body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem; max-width: 72rem; }
 h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.5rem; }
 table { border-collapse: collapse; margin-top: .5rem; }
 td, th { padding: .15rem .7rem .15rem 0; text-align: left; font-variant-numeric: tabular-nums; }
 #meta, #err { color: #666; } #err { color: #b00; }
 svg { background: #fafafa; border: 1px solid #ddd; margin: .3rem 0; }
 .legend span { margin-right: 1rem; }
</style></head><body>
<h1>mfc campaign analytics <span id="name"></span> <small><a href="/">dashboard</a></small></h1>
<p id="meta">loading…</p><p id="err"></p>
<h2>cells</h2><table id="cells"></table>
<h2>confusion (baseline-predicted vs observed)</h2><table id="confusion"></table>
<h2>response curves</h2><div id="curves"></div>
<script>
const COLORS = ["#4a90d9", "#d94a4a", "#4ad98c", "#d9a84a", "#9a4ad9", "#555"];
function curveSVG(group, cells, theta) {
  const W = 480, H = 180, PAD = 34;
  let maxX = 1, maxY = theta * 1.2;
  for (const c of cells) for (const p of c.curve || []) {
    if (p.crowd > maxX) maxX = p.crowd;
    if (p.quantile_ms.mean > maxY) maxY = p.quantile_ms.mean;
  }
  const sx = x => PAD + (W - PAD - 6) * x / maxX;
  const sy = y => H - PAD + (PAD + 6 - H) * y / maxY;
  let s = '<svg width="' + W + '" height="' + H + '">';
  s += '<line x1="' + PAD + '" y1="' + (H - PAD) + '" x2="' + W + '" y2="' + (H - PAD) + '" stroke="#999"/>';
  s += '<line x1="' + PAD + '" y1="0" x2="' + PAD + '" y2="' + (H - PAD) + '" stroke="#999"/>';
  s += '<line x1="' + PAD + '" y1="' + sy(theta) + '" x2="' + W + '" y2="' + sy(theta) +
       '" stroke="#b00" stroke-dasharray="4 3"/>';
  s += '<text x="' + (PAD + 4) + '" y="' + (sy(theta) - 3) + '" fill="#b00" font-size="10">theta=' + theta + 'ms</text>';
  s += '<text x="2" y="10" font-size="10">' + maxY.toFixed(0) + 'ms</text>';
  s += '<text x="' + (W - 20) + '" y="' + (H - PAD + 12) + '" font-size="10">' + maxX + '</text>';
  cells.forEach((c, i) => {
    const pts = (c.curve || []).map(p => sx(p.crowd) + "," + sy(p.quantile_ms.mean)).join(" ");
    if (pts) s += '<polyline points="' + pts + '" fill="none" stroke="' +
                  COLORS[i % COLORS.length] + '" stroke-width="1.5"/>';
  });
  s += '</svg>';
  let legend = '<div class="legend">';
  cells.forEach((c, i) => {
    legend += '<span style="color:' + COLORS[i % COLORS.length] + '">&#9632; ' +
              (c.scenario || "clean") + (c.knee_crowd ? " (knee " + c.knee_crowd + ")" : "") + '</span>';
  });
  return '<h3 style="font-size:1rem;margin-bottom:0">' + group + '</h3>' + s + legend + '</div>';
}
async function tick() {
  try {
    const d = await fetch("/analyze.json").then(r => r.json());
    document.getElementById("name").textContent = d.campaign || "";
    document.getElementById("meta").textContent =
      d.done_jobs + "/" + d.total_jobs + " jobs" + (d.complete ? "" : " (incomplete)") +
      " · " + (d.cells || []).length + " cells · theta " + d.threshold_ms + "ms";
    document.getElementById("err").textContent = "";
    const cells = document.getElementById("cells");
    cells.innerHTML = "<tr><th>cell</th><th>n</th><th>measured</th><th>Stopped</th>" +
      "<th>NoStop</th><th>knee</th><th>stop p50</th><th>err%</th></tr>";
    for (const c of d.cells || []) {
      const label = c.band + "/" + c.stage + (c.scenario ? "/" + c.scenario : "");
      cells.innerHTML += "<tr><td>" + label + "</td><td>" + c.n + "</td><td>" + c.measured +
        "</td><td>" + (c.verdicts.Stopped || 0) + "</td><td>" + (c.verdicts.NoStop || 0) +
        "</td><td>" + (c.knee_crowd || "–") + "</td><td>" + (c.stop_p50 || "–") +
        "</td><td>" + (100 * c.requests.error_rate).toFixed(2) + "</td></tr>";
    }
    const conf = document.getElementById("confusion");
    conf.innerHTML = "<tr><th>cell</th><th>sites</th><th>agree</th><th>evaded</th><th>false-stop</th></tr>";
    for (const cf of d.confusion || []) {
      conf.innerHTML += "<tr><td>" + cf.band + "/" + cf.stage + "/" + cf.scenario +
        "</td><td>" + cf.sites + "</td><td>" + cf.agree + "</td><td>" + cf.evaded +
        "</td><td>" + cf.false_stop + "</td></tr>";
    }
    const groups = new Map();
    for (const c of d.cells || []) {
      if (!(c.curve || []).length) continue;
      const k = c.band + "/" + c.stage;
      if (!groups.has(k)) groups.set(k, []);
      groups.get(k).push(c);
    }
    let html = "";
    for (const [k, cs] of groups) html += curveSVG(k, cs, d.threshold_ms);
    document.getElementById("curves").innerHTML = html || "no curves yet";
  } catch (e) {
    document.getElementById("err").textContent = String(e);
  }
}
tick(); setInterval(tick, 5000);
</script></body></html>
`
