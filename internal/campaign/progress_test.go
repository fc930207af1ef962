package campaign

import (
	"strings"
	"testing"
	"time"

	"mfc/internal/clock/clocktest"
	"mfc/internal/core"
	"mfc/internal/obs"
)

// newTestTracker puts the tracker on a clock that advances only when told
// — ETAs become exact.
func newTestTracker(reg *obs.Registry) (*Tracker, *clocktest.Clock) {
	clk := clocktest.New(time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC))
	tr := NewTracker(reg)
	tr.clk = clk
	tr.started = clk.Now()
	return tr, clk
}

func finish(tr *Tracker, band string, err string) {
	tr.OnEvent(SiteEvent{Band: band, Event: core.ExperimentFinished{Err: err}})
}

// sessionETA's contract, tested once here for every surface: the rate
// comes from completions after the first, and resumed jobs ("+N earlier")
// move the percentage but never the rate.
func TestSessionETAAndEarlierAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	tr, clk := newTestTracker(reg)
	tr.Start(StartInfo{Total: 20, AlreadyDone: 10, PendingByBand: map[string]int{"rank-1M": 10}})

	// No completions: no ETA, percentage anchored by the earlier jobs.
	line := tr.Line()
	if !strings.Contains(line, "10/20 sites (50.0%)") || !strings.Contains(line, "(+10 earlier)") {
		t.Errorf("start line = %q", line)
	}
	if strings.Contains(line, "eta") {
		t.Errorf("ETA with zero completions: %q", line)
	}

	// One completion anchors the clock but is not a rate yet.
	finish(tr, "rank-1M", "")
	if _, ok := tr.etaLocked(); ok {
		t.Error("ETA from a single completion")
	}

	// A second completion 2s later: rate = 1/2s, 8 left -> 16s. The 10
	// earlier jobs must not inflate the rate (a drifting implementation
	// would count them and report a ~7x shorter ETA).
	clk.Advance(2 * time.Second)
	finish(tr, "rank-1M", "")
	eta, ok := tr.etaLocked()
	if !ok || eta != 16*time.Second {
		t.Errorf("eta = %v ok=%v, want 16s", eta, ok)
	}
	line = tr.Line()
	if !strings.Contains(line, "12/20 sites (60.0%)") ||
		!strings.Contains(line, "(+10 earlier)") ||
		!strings.Contains(line, "eta 16s") {
		t.Errorf("line = %q", line)
	}

	// The same numbers surface identically in the snapshot and /metrics —
	// the no-drift contract.
	snap := tr.Snapshot()
	if snap.Done != 12 || snap.DoneEarlier != 10 || snap.DoneSession != 2 ||
		snap.ETASeconds != 16 || snap.RatePerSecond != 0.5 {
		t.Errorf("snapshot = %+v", snap)
	}
	var sb strings.Builder
	reg.WriteTo(&sb)
	for _, want := range []string{
		"mfc_campaign_jobs_total 20",
		"mfc_campaign_jobs_done 12",
		"mfc_campaign_jobs_done_earlier 10",
		"mfc_campaign_jobs_done_session 2",
		"mfc_campaign_eta_seconds 16",
		"mfc_campaign_session_rate_jobs_per_second 0.5",
		`mfc_campaign_band_jobs_done{band="rank-1M"} 2`,
		`mfc_campaign_band_jobs_pending{band="rank-1M"} 10`,
	} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

func TestTrackerCountsEpochsErrorsAndShards(t *testing.T) {
	reg := obs.NewRegistry()
	tr, _ := newTestTracker(reg)
	tr.Start(StartInfo{Total: 4, PendingByBand: map[string]int{"phishing": 4}})
	tr.OnEvent(SiteEvent{Band: "phishing", Event: core.EpochCompleted{}})
	tr.OnEvent(SiteEvent{Band: "phishing", Event: core.EpochCompleted{}})
	tr.OnClaim(0)
	tr.OnClaim(1)
	tr.OnShardDone(0, 5)
	finish(tr, "phishing", "dial failed")
	finish(tr, "phishing", "")

	snap := tr.Snapshot()
	if snap.Epochs != 2 || snap.ErroredSession != 1 ||
		snap.ShardsClaimed != 2 || snap.ShardsSealed != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
	line := tr.Line()
	if !strings.Contains(line, "2 epochs") || !strings.Contains(line, "shards 1/2") {
		t.Errorf("line = %q", line)
	}
	if tr.Finished() {
		t.Error("Finished with 2/4 done")
	}
	finish(tr, "phishing", "")
	finish(tr, "phishing", "")
	if !tr.Finished() {
		t.Error("not Finished with 4/4 done")
	}
	if len(snap.Bands) != 1 || snap.Bands[0].Band != "phishing" {
		t.Errorf("bands = %+v", snap.Bands)
	}
}

// A nil registry tracker still renders lines (the -quiet-less, metrics-less
// default path).
func TestTrackerNilRegistry(t *testing.T) {
	tr := NewTracker(nil)
	tr.Start(StartInfo{Total: 2})
	finish(tr, "", "")
	if !strings.Contains(tr.Line(), "1/2 sites") {
		t.Errorf("line = %q", tr.Line())
	}
}
