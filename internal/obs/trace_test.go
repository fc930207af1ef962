package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mfc/internal/core"
)

// traceDoc mirrors the JSON object form for decoding in tests.
type traceDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		S    string         `json:"s"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func decodeTrace(t *testing.T, tr *Tracer) traceDoc {
	t.Helper()
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var doc traceDoc
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v\n%s", err, sb.String())
	}
	return doc
}

// finishedEvent builds a terminal event with one stage (two epochs) of
// exact virtual intervals, the way the coordinator populates them.
func finishedEvent() core.ExperimentFinished {
	return core.ExperimentFinished{
		Target: "http://site.test/",
		Result: &core.Result{
			Target: "http://site.test/",
			Stages: []*core.StageResult{{
				Stage:         core.StageBase,
				Verdict:       core.VerdictStopped,
				Threshold:     100 * time.Millisecond,
				Quantile:      0.9,
				StoppingCrowd: 20,
				FirstExceed:   20,
				TotalRequests: 45,
				Started:       2 * time.Second,
				Elapsed:       3 * time.Minute,
				Epochs: []core.EpochResult{
					{Index: 0, Kind: core.EpochRamp, Crowd: 5,
						ArriveAt: 10 * time.Second, Done: 40 * time.Second},
					{Index: 1, Kind: core.EpochCheckPlus, Crowd: 21,
						ArriveAt: 70 * time.Second, Done: 100 * time.Second,
						Exceeded: true},
				},
			}},
		},
	}
}

func TestTracerSpansAndInstants(t *testing.T) {
	tr := NewTracer()
	obs := tr.RunObserver("run-1")
	obs(core.ScenarioApplied{Name: "lossy", Effects: []string{"loss"}})
	obs(core.StageStarted{Stage: core.StageBase, At: 2 * time.Second})
	obs(core.EpochCompleted{Stage: core.StageBase, Kind: core.EpochRamp,
		Crowd: 5, At: 40 * time.Second})
	obs(core.CheckPhaseEntered{Stage: core.StageBase, Crowd: 20})
	obs(core.FaultInjected{Scenario: "lossy", Kind: "flap",
		At: 55 * time.Second, Duration: 5 * time.Second})
	obs(finishedEvent())

	doc := decodeTrace(t, tr)
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}

	var stageSpans, epochSpans, instants, meta int
	byName := map[string]int64{} // name -> ts µs
	for _, e := range doc.TraceEvents {
		byName[e.Name] = e.Ts
		switch {
		case e.Ph == "M":
			meta++
		case e.Ph == "X" && e.Tid == 2: // row 0, the stages
			stageSpans++
			if e.Ts != (2*time.Second).Microseconds() || e.Dur != (3*time.Minute).Microseconds() {
				t.Errorf("stage span ts/dur = %d/%d, want exact virtual interval", e.Ts, e.Dur)
			}
			if e.Args["verdict"] != "Stopped" {
				t.Errorf("stage span verdict arg = %v", e.Args["verdict"])
			}
		case e.Ph == "X" && e.Tid == 3: // row 1, the epochs
			epochSpans++
		case e.Ph == "i":
			instants++
			if e.S != "t" || e.Tid != 1 {
				t.Errorf("instant %q scope/tid = %q/%d, want t on the run's track (tid 1)", e.Name, e.S, e.Tid)
			}
		}
	}
	if stageSpans != 1 {
		t.Errorf("stage spans = %d, want 1", stageSpans)
	}
	if epochSpans != 2 {
		t.Errorf("epoch spans = %d, want 2", epochSpans)
	}
	// scenario, check-phase and fault instants at minimum.
	if instants < 3 {
		t.Errorf("instants = %d, want >= 3", instants)
	}
	if meta < 4 { // process_name + three thread_names
		t.Errorf("metadata events = %d, want >= 4", meta)
	}
	if ts := byName["fault flap"]; ts != (55 * time.Second).Microseconds() {
		t.Errorf("fault instant ts = %d, want 55s in µs", ts)
	}
	// Check-phase entry carries no timestamp; it anchors to the last epoch.
	if ts := byName["check phase @20"]; ts != (40 * time.Second).Microseconds() {
		t.Errorf("check instant ts = %d, want last epoch's At", ts)
	}
	epoch := byName["epoch 1 check+ crowd=21"]
	if epoch != (70 * time.Second).Microseconds() {
		t.Errorf("epoch span ts = %d, want ArriveAt in µs", epoch)
	}
}

func TestTracerDistinctPids(t *testing.T) {
	tr := NewTracer()
	a := tr.RunObserver("a")
	b := tr.RunObserver("b")
	a(finishedEvent())
	b(finishedEvent())
	doc := decodeTrace(t, tr)
	pids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		pids[e.Pid] = true
	}
	if len(pids) != 2 {
		t.Errorf("pids = %v, want two distinct processes", pids)
	}
}

// The document depends only on what each run reported, not on the order
// the runs were opened in or their events interleaved: parMap workers
// deliver them in whatever order the scheduler picks.
func TestTracerOrderIndependent(t *testing.T) {
	events := func(fault time.Duration) []core.Event {
		return []core.Event{
			core.ScenarioApplied{Name: "lossy", Effects: []string{"loss", "delay"}},
			core.StageStarted{Stage: core.StageBase, At: 2 * time.Second},
			core.FaultInjected{Scenario: "lossy", Kind: "flap", At: fault, Duration: time.Second},
			core.CheckPhaseEntered{Stage: core.StageBase, Crowd: 20},
			finishedEvent(),
		}
	}
	evs := map[string][]core.Event{"a": events(5 * time.Second), "b": events(9 * time.Second)}
	write := func(labels ...string) string {
		tr := NewTracer()
		obs := map[string]core.Observer{}
		for _, l := range labels {
			obs[l] = tr.RunObserver(l)
		}
		for i := range evs["a"] {
			for _, l := range labels {
				obs[l](evs[l][i])
			}
		}
		var sb strings.Builder
		if err := tr.WriteJSON(&sb); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return sb.String()
	}
	if ab, ba := write("a", "b"), write("b", "a"); ab != ba {
		t.Errorf("trace depends on run order:\n--- a first\n%s\n--- b first\n%s", ab, ba)
	}
}

func TestTracerErrorRun(t *testing.T) {
	tr := NewTracer()
	obs := tr.RunObserver("err")
	obs(core.ExperimentFinished{Target: "x", Err: "registration failed"})
	doc := decodeTrace(t, tr)
	found := false
	for _, e := range doc.TraceEvents {
		if e.Ph == "i" && strings.HasPrefix(e.Name, "error:") {
			found = true
		}
		if e.Ph == "X" && e.Tid != 1 {
			t.Errorf("nil-Result run emitted stage or epoch span %q", e.Name)
		}
	}
	if !found {
		t.Error("no error instant for a failed run")
	}
}

// An empty tracer must still serialize to a loadable document (an empty
// traceEvents array, not null).
func TestTracerEmpty(t *testing.T) {
	var sb strings.Builder
	NewTracer().WriteJSON(&sb)
	if !strings.Contains(sb.String(), `"traceEvents": []`) {
		t.Errorf("empty trace = %s", sb.String())
	}
}
