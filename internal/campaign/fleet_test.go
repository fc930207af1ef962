package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"mfc/internal/clock/clocktest"
	"mfc/internal/obs"
)

// syntheticFleet builds a deterministic three-worker fleet around base
// (unix µs): w-a and w-b each seal two 10ms shards; w-c claimed shard 9
// at base and never finished it. With the fake clock at base+1s that
// shard is 100× the median — a straggler at any sane k.
func syntheticFleet(base int64) []obs.Span {
	const ms = int64(1000)
	trace := obs.DeterministicTraceID("fleet-test")
	mk := func(id uint64, worker string, shard int, cat, name string, start, end int64, attrs ...obs.SpanAttr) obs.Span {
		return obs.Span{Trace: trace, ID: id, Name: name, Cat: cat, Worker: worker,
			Shard: shard, Start: start, End: end, Attrs: attrs}
	}
	sealed := obs.ABool("sealed", true)
	return []obs.Span{
		mk(1, "w-a", 0, "claim", "claim", base, base),
		mk(2, "w-a", 0, "shard", "shard 0", base, base+10*ms, sealed),
		mk(3, "w-a", 0, "job", "job 0", base, base+5*ms),
		mk(4, "w-a", 2, "claim", "claim", base+10*ms, base+10*ms),
		mk(5, "w-a", 2, "shard", "shard 2", base+10*ms, base+20*ms, sealed),
		mk(6, "w-b", 1, "claim", "claim", base, base),
		mk(7, "w-b", 1, "shard", "shard 1", base, base+10*ms, sealed),
		mk(8, "w-b", 3, "claim", "claim", base+10*ms, base+10*ms),
		mk(9, "w-b", 3, "shard", "shard 3", base+10*ms, base+20*ms, sealed),
		mk(10, "w-b", -1, "idle", "idle", base+20*ms, base+25*ms),
		mk(11, "w-c", 9, "claim", "claim", base, base),
	}
}

func TestFleetSnapshotCounts(t *testing.T) {
	const base = int64(1_000_000)
	f := NewFleet(4)
	f.clk = clocktest.New(time.UnixMicro(base + 1_000_000))
	f.Ingest(syntheticFleet(base))

	doc := f.Snapshot()
	if len(doc.Workers) != 3 {
		t.Fatalf("got %d workers, want 3: %+v", len(doc.Workers), doc.Workers)
	}
	for i, want := range []string{"w-a", "w-b", "w-c"} {
		if doc.Workers[i].Name != want {
			t.Errorf("workers[%d] = %q, want %q (sorted by name)", i, doc.Workers[i].Name, want)
		}
	}
	a := doc.Workers[0]
	if a.Shards != 2 || a.Sealed != 2 || a.Jobs != 1 {
		t.Errorf("w-a counts = %d shards/%d sealed/%d jobs, want 2/2/1", a.Shards, a.Sealed, a.Jobs)
	}
	if a.BusyUs != 20_000 {
		t.Errorf("w-a busy = %dµs, want 20000", a.BusyUs)
	}
	if doc.ShardP50Us != 10_000 {
		t.Errorf("shard p50 = %dµs, want 10000", doc.ShardP50Us)
	}
	if len(doc.Active) != 1 || doc.Active[0].Shard != 9 || doc.Active[0].Worker != "w-c" {
		t.Errorf("active = %+v, want exactly shard 9 held by w-c", doc.Active)
	}
}

// Takeover re-claims must not reset the straggler clock: the age of an
// active shard is measured from the earliest claim since it last
// completed, so a shard bouncing between dying workers stays flagged.
func TestFleetTakeoverKeepsStragglerClock(t *testing.T) {
	const base = int64(1_000_000)
	f := NewFleet(4)
	f.clk = clocktest.New(time.UnixMicro(base + 1_000_000))
	spans := syntheticFleet(base)
	// w-d re-claims shard 9 moments before "now": a fresh clock would hide
	// the straggler.
	spans = append(spans, obs.Span{ID: 12, Name: "claim", Cat: "claim", Worker: "w-d",
		Shard: 9, Start: base + 990_000, End: base + 990_000,
		Attrs: []obs.SpanAttr{obs.ABool("takeover", true)}})
	f.Ingest(spans)

	doc := f.Snapshot()
	if len(doc.Active) != 1 {
		t.Fatalf("active = %+v, want one shard", doc.Active)
	}
	if got := doc.Active[0]; !got.Straggler || got.Worker != "w-c" || got.AgeUs != 1_000_000 {
		t.Errorf("active shard = %+v, want straggler aged 1s still attributed to first claimant", got)
	}
}

// The drift test: the /fleet.json snapshot, the Stragglers() count behind
// mfc_campaign_straggler_shards, the scraped metric text, and the merged
// Chrome trace must all tell the same story about the same span set.
func TestFleetViewsAgree(t *testing.T) {
	const base = int64(1_000_000)
	spans := syntheticFleet(base)
	f := NewFleet(4)
	f.clk = clocktest.New(time.UnixMicro(base + 1_000_000))
	f.Ingest(spans)

	doc := f.Snapshot()
	fromDoc := 0
	for _, a := range doc.Active {
		if a.Straggler {
			fromDoc++
		}
	}
	if fromDoc != doc.Stragglers {
		t.Errorf("snapshot disagrees with itself: %d flagged rows vs Stragglers=%d", fromDoc, doc.Stragglers)
	}
	if got := f.Stragglers(); got != doc.Stragglers {
		t.Errorf("Stragglers() = %d, snapshot says %d", got, doc.Stragglers)
	}

	reg := obs.NewRegistry()
	f.Register(reg)
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("mfc_campaign_straggler_shards %d", doc.Stragglers)
	if !strings.Contains(buf.String(), want) {
		t.Errorf("scrape missing %q:\n%s", want, buf.String())
	}

	// The merged trace's view: a shard with a claim instant but no
	// completed (non-partial) shard slice is still active. With the fake
	// clock 1s past base and a 10ms median, every such shard is the same
	// set the straggler gauge counts.
	var tr bytes.Buffer
	if err := obs.WriteFleetTrace(&tr, spans); err != nil {
		t.Fatal(err)
	}
	var tdoc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr.Bytes(), &tdoc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	// A span's shard is its thread track: tid = shard+2 (tid 1 is the
	// worker-level track).
	claimed, finished := map[int]bool{}, map[int]bool{}
	for _, ev := range tdoc.TraceEvents {
		switch {
		case ev.Name == "claim" && ev.Ph == "i" && ev.Tid >= 2:
			claimed[ev.Tid-2] = true
		case strings.HasPrefix(ev.Name, "shard ") && ev.Ph == "X" && fmt.Sprint(ev.Args["partial"]) != "true":
			finished[ev.Tid-2] = true
		}
	}
	fromTrace := 0
	for shard := range claimed {
		if !finished[shard] {
			fromTrace++
		}
	}
	if fromTrace != doc.Stragglers {
		t.Errorf("trace shows %d unfinished claimed shards, straggler gauge says %d", fromTrace, doc.Stragglers)
	}
}

// Below three sealed samples there is no defensible median; nothing may
// be flagged while the fleet warms up.
func TestFleetStragglerWarmup(t *testing.T) {
	const base = int64(1_000_000)
	f := NewFleet(4)
	f.clk = clocktest.New(time.UnixMicro(base + 10_000_000))
	f.Ingest([]obs.Span{
		{ID: 1, Name: "claim", Cat: "claim", Worker: "w", Shard: 0, Start: base, End: base},
		{ID: 2, Name: "shard 1", Cat: "shard", Worker: "w", Shard: 1, Start: base, End: base + 100,
			Attrs: []obs.SpanAttr{obs.ABool("sealed", true)}},
		{ID: 3, Name: "shard 2", Cat: "shard", Worker: "w", Shard: 2, Start: base, End: base + 100,
			Attrs: []obs.SpanAttr{obs.ABool("sealed", true)}},
	})
	if got := f.Stragglers(); got != 0 {
		t.Errorf("Stragglers() = %d with only 2 sealed samples, want 0 (warming up)", got)
	}
	if doc := f.Snapshot(); doc.ThresholdUs != 0 || doc.Stragglers != 0 {
		t.Errorf("snapshot = threshold %dµs stragglers %d, want 0/0 while warming up", doc.ThresholdUs, doc.Stragglers)
	}
}

// Hostile ingest must be bounded: more workers, active claims, and
// timeline segments than the caps may arrive, but never be stored.
func TestFleetIngestBounded(t *testing.T) {
	f := NewFleet(0)
	var spans []obs.Span
	for i := 0; i < maxFleetWorkers+50; i++ {
		spans = append(spans, obs.Span{ID: uint64(i + 1), Name: "claim", Cat: "claim",
			Worker: fmt.Sprintf("w-%04d", i), Shard: i, Start: 1, End: 1})
	}
	for i := 0; i < maxFleetTimeline+30; i++ {
		spans = append(spans, obs.Span{ID: uint64(9000 + i), Name: "idle", Cat: "idle",
			Worker: "w-0000", Shard: -1, Start: int64(i), End: int64(i + 1)})
	}
	spans = append(spans, obs.Span{ID: 99999, Name: "x", Cat: "shard",
		Worker: strings.Repeat("n", maxFleetNameLen+77), Shard: 0, Start: 1, End: 2})
	f.Ingest(spans)
	if err := f.Bounded(); err != nil {
		t.Fatal(err)
	}
	if doc := f.Snapshot(); doc.Skipped == 0 {
		t.Error("caps were exceeded but nothing counted as skipped")
	}
}
