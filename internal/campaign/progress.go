package campaign

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"mfc/internal/clock"
	"mfc/internal/core"
	"mfc/internal/obs"
)

// Tracker folds the campaign's typed event stream into one progress state
// shared by every surface: the terminal progress line (Line), the
// /progress JSON (Snapshot) and the /metrics exposition all read the same
// mutex-guarded fields — the counters via obs series, the derived values
// via GaugeFuncs evaluated at scrape — so the three can never drift.
//
// Its methods match the campaign.Options / dist.WorkOptions hooks:
//
//	tr := campaign.NewTracker(reg)
//	opts.OnStart, opts.OnEvent = tr.Start, tr.OnEvent
//	opts.OnClaim, opts.OnShardDone = tr.OnClaim, tr.OnShardDone
//
// Session-scoped rates and ETAs count only this session's completions:
// jobs finished in an earlier session anchor the percentage, never the
// rate, so a resumed campaign shows an honest ETA.
type Tracker struct {
	clk     clock.Clock
	started time.Time

	mu        sync.Mutex
	total     int
	already   int
	done      int // completions this session
	errored   int // session completions with Err
	firstDone time.Time
	order     []string
	bands     map[string]*bandTrack

	epochs        obs.Counter
	shardsClaimed obs.Counter
	shardsSealed  obs.Counter
	bandDone      obs.GaugeVec
	bandPending   obs.GaugeVec
}

type bandTrack struct {
	pending int
	done    int
	first   time.Time
}

// NewTracker registers the mfc_campaign_* families on reg and returns the
// tracker. reg may be nil for a metrics-less tracker (terminal line only).
func NewTracker(reg *obs.Registry) *Tracker {
	t := &Tracker{clk: clock.Real, bands: map[string]*bandTrack{}}
	t.started = t.clk.Now()
	if reg == nil {
		reg = obs.NewRegistry() // unexposed sink; keeps the hot path uniform
	}
	t.epochs = reg.Counter("mfc_campaign_epochs_total",
		"Epochs completed by this session's measurements.")
	t.shardsClaimed = reg.Counter("mfc_campaign_shards_claimed_total",
		"Result-shard leases claimed by this worker (including takeovers).")
	t.shardsSealed = reg.Counter("mfc_campaign_shards_sealed_total",
		"Result shards this worker completed and sealed.")
	t.bandDone = reg.GaugeVec("mfc_campaign_band_jobs_done",
		"Jobs completed this session, per popularity band.", "band")
	t.bandPending = reg.GaugeVec("mfc_campaign_band_jobs_pending",
		"Jobs this session started with, per popularity band.", "band")
	// Every derived series is a field of the same Snapshot /progress serves.
	gauge := func(name, help string, field func(Progress) float64) {
		reg.GaugeFunc(name, help, func() float64 { return field(t.Snapshot()) })
	}
	gauge("mfc_campaign_jobs_total", "Jobs in the campaign plan.",
		func(p Progress) float64 { return float64(p.Total) })
	gauge("mfc_campaign_jobs_done", "Jobs with a stored record: earlier sessions plus this one.",
		func(p Progress) float64 { return float64(p.Done) })
	gauge("mfc_campaign_jobs_done_earlier", "Jobs already complete when this session started (resume skip).",
		func(p Progress) float64 { return float64(p.DoneEarlier) })
	gauge("mfc_campaign_jobs_done_session", "Jobs completed by this session.",
		func(p Progress) float64 { return float64(p.DoneSession) })
	gauge("mfc_campaign_jobs_errored_session", "This session's completions that carried a measurement error.",
		func(p Progress) float64 { return float64(p.ErroredSession) })
	gauge("mfc_campaign_session_rate_jobs_per_second", "This session's completion rate (0 until two completions).",
		func(p Progress) float64 { return p.RatePerSecond })
	gauge("mfc_campaign_eta_seconds", "Estimated seconds to finish remaining jobs at the session rate (0 = unknown).",
		func(p Progress) float64 { return p.ETASeconds })
	return t
}

// Start records the plan totals; it matches campaign.Options.OnStart.
func (t *Tracker) Start(info StartInfo) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total = info.Total
	t.already = info.AlreadyDone
	for band, n := range info.PendingByBand {
		t.bands[band] = &bandTrack{pending: n}
		t.order = append(t.order, band)
		t.bandPending.With(band).Set(float64(n))
		t.bandDone.With(band).Set(0)
	}
	sort.Strings(t.order)
}

// OnEvent folds one site event in; it matches campaign.Options.OnEvent.
func (t *Tracker) OnEvent(ev SiteEvent) {
	switch e := ev.Event.(type) {
	case core.EpochCompleted:
		t.epochs.Inc()
	case core.ExperimentFinished:
		t.mu.Lock()
		if t.done == 0 {
			t.firstDone = t.clk.Now()
		}
		t.done++
		if e.Err != "" {
			t.errored++
		}
		if b := t.bands[ev.Band]; b != nil {
			if b.done == 0 {
				b.first = t.clk.Now()
			}
			b.done++
			t.bandDone.With(ev.Band).Set(float64(b.done))
		}
		t.mu.Unlock()
	}
}

// OnClaim counts a shard-lease claim; it matches dist.WorkOptions.OnClaim.
func (t *Tracker) OnClaim(int) { t.shardsClaimed.Inc() }

// OnShardDone counts a sealed shard; it matches dist.WorkOptions.OnShardDone.
func (t *Tracker) OnShardDone(int, int) { t.shardsSealed.Inc() }

// Finished reports whether every job in the plan has a record.
func (t *Tracker) Finished() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total > 0 && t.already+t.done >= t.total
}

func (t *Tracker) etaLocked() (time.Duration, bool) {
	return sessionETA(t.done, t.total-t.already-t.done, t.firstDone, t.clk.Now())
}

// sessionRate is the completions per second of `done` completions since
// `first`. It counts only completions after the first (the first anchors
// the clock — one data point is not a rate yet), and deliberately never
// includes jobs completed before this session: a resumed campaign's
// already-done sites say nothing about how fast this session is measuring.
func sessionRate(done int, first, now time.Time) float64 {
	if elapsed := now.Sub(first).Seconds(); done >= 2 && elapsed > 0 {
		return float64(done-1) / elapsed
	}
	return 0
}

// sessionETA extrapolates the time to finish `left` jobs at sessionRate.
func sessionETA(done, left int, first, now time.Time) (time.Duration, bool) {
	rate := sessionRate(done, first, now)
	if left <= 0 || rate == 0 {
		return 0, false
	}
	return time.Duration(float64(left)/rate) * time.Second, true
}

// Line renders the live terminal progress line (leading \r, no newline):
// overall completion, epoch throughput, "(+N earlier)" for resumed jobs,
// shard lease churn once a claim happened, the session ETA, and per-band
// progress with per-band ETAs.
func (t *Tracker) Line() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	overall := t.already + t.done
	total := t.total
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(overall) / float64(total)
	}
	fmt.Fprintf(&b, "\r%d/%d sites (%.1f%%) %.0fs %d epochs",
		overall, total, pct, t.clk.Now().Sub(t.started).Seconds(), t.epochs.Value())
	if t.already > 0 {
		fmt.Fprintf(&b, " (+%d earlier)", t.already)
	}
	if claimed := t.shardsClaimed.Value(); claimed > 0 {
		fmt.Fprintf(&b, " shards %d/%d", t.shardsSealed.Value(), claimed)
	}
	if eta, ok := t.etaLocked(); ok {
		fmt.Fprintf(&b, " eta %s", eta.Round(time.Second))
	}
	for _, band := range t.order {
		bs := t.bands[band]
		if bs.pending == 0 {
			continue
		}
		fmt.Fprintf(&b, " | %s %d/%d", band, bs.done, bs.pending)
		if eta, ok := sessionETA(bs.done, bs.pending-bs.done, bs.first, t.clk.Now()); ok {
			fmt.Fprintf(&b, " eta %s", eta.Round(time.Second))
		}
	}
	b.WriteString(" ")
	return b.String()
}

// BandProgress is one band's slice of the /progress JSON.
type BandProgress struct {
	Band       string  `json:"band"`
	Pending    int     `json:"pending"` // jobs this session started with
	Done       int     `json:"done"`    // completed this session
	ETASeconds float64 `json:"eta_seconds,omitempty"`
}

// Progress is the Tracker's JSON snapshot, served at /progress. It reads
// the same state as Line and the mfc_campaign_* metrics.
type Progress struct {
	Total          int            `json:"total"`
	Done           int            `json:"done"` // earlier + session
	DoneEarlier    int            `json:"done_earlier"`
	DoneSession    int            `json:"done_session"`
	ErroredSession int            `json:"errored_session"`
	Epochs         int64          `json:"epochs"`
	ShardsClaimed  int64          `json:"shards_claimed"`
	ShardsSealed   int64          `json:"shards_sealed"`
	ElapsedSeconds float64        `json:"elapsed_seconds"`
	RatePerSecond  float64        `json:"rate_jobs_per_second"`
	ETASeconds     float64        `json:"eta_seconds,omitempty"`
	Bands          []BandProgress `json:"bands,omitempty"`
}

// Snapshot returns the current progress state.
func (t *Tracker) Snapshot() Progress {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := Progress{
		Total:          t.total,
		Done:           t.already + t.done,
		DoneEarlier:    t.already,
		DoneSession:    t.done,
		ErroredSession: t.errored,
		Epochs:         t.epochs.Value(),
		ShardsClaimed:  t.shardsClaimed.Value(),
		ShardsSealed:   t.shardsSealed.Value(),
		ElapsedSeconds: t.clk.Now().Sub(t.started).Seconds(),
		RatePerSecond:  sessionRate(t.done, t.firstDone, t.clk.Now()),
	}
	if eta, ok := t.etaLocked(); ok {
		p.ETASeconds = eta.Seconds()
	}
	for _, band := range t.order {
		bs := t.bands[band]
		bp := BandProgress{Band: band, Pending: bs.pending, Done: bs.done}
		if eta, ok := sessionETA(bs.done, bs.pending-bs.done, bs.first, t.clk.Now()); ok {
			bp.ETASeconds = eta.Seconds()
		}
		p.Bands = append(p.Bands, bp)
	}
	return p
}
