package experiments

import (
	"strings"
	"testing"
	"time"

	"mfc/internal/campaign"
	"mfc/internal/population"
)

func TestTableRendering(t *testing.T) {
	tb := newTable("Title line", "col1", "second-column", "c3")
	tb.add("a", "b")
	tb.addf("%d|%s|%s", 42, "x", "yy")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Title line" {
		t.Errorf("title = %q", lines[0])
	}
	if !strings.Contains(lines[1], "col1") || !strings.Contains(lines[1], "second-column") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.Contains(lines[2], "----") {
		t.Errorf("separator = %q", lines[2])
	}
	if !strings.Contains(lines[3], "a") {
		t.Errorf("row1 = %q", lines[3])
	}
	if !strings.Contains(lines[4], "42") || !strings.Contains(lines[4], "yy") {
		t.Errorf("row2 = %q", lines[4])
	}
	// Columns are aligned: every line at least as wide as the header's
	// first two columns.
	for i := 1; i < len(lines); i++ {
		if len(lines[i]) < len("col1  second-column") {
			t.Errorf("line %d too short: %q", i, lines[i])
		}
	}
}

func TestMs(t *testing.T) {
	if got := ms(1500 * time.Microsecond); got != "1.5" {
		t.Errorf("ms = %q, want 1.5", got)
	}
	if got := ms(0); got != "0.0" {
		t.Errorf("ms(0) = %q", got)
	}
}

func TestStopStr(t *testing.T) {
	if got := stopStr(true, 25, 50); got != "25" {
		t.Errorf("stopped = %q", got)
	}
	if got := stopStr(false, 0, 50); got != "NoStop (50)" {
		t.Errorf("nostop = %q", got)
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int]int{0: 4, 15: 0, 20: 0, 21: 1, 30: 1, 35: 2, 45: 3, 50: 3}
	for stop, want := range cases {
		if got := population.BucketOf(stop); got != want {
			t.Errorf("BucketOf(%d) = %d, want %d", stop, got, want)
		}
	}
}

func TestBucketShare(t *testing.T) {
	sum := campaign.NewCellSummary()
	for _, rec := range []campaign.Record{
		{Verdict: "Stopped", Stop: 15}, {Verdict: "Stopped", Stop: 20}, {Verdict: "Stopped", Stop: 25},
		{Verdict: "Stopped", Stop: 35}, {Verdict: "Unavailable"},
		{Verdict: "NoStop"}, {Verdict: "NoStop"}, {Verdict: "NoStop"}, {Verdict: "NoStop"}, {Verdict: "NoStop"}, {Verdict: "NoStop"},
	} {
		sum.Add(&rec)
	}
	if f := share(sum, 0); f != 0.2 {
		t.Errorf("share(0) = %v", f)
	}
	if s := sum.StoppedFraction(); s != 0.4 {
		t.Errorf("StoppedFraction = %v", s)
	}
	if share(campaign.NewCellSummary(), 0) != 0 {
		t.Error("empty share should be 0")
	}
}
