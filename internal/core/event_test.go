package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"mfc/internal/content"
	"mfc/internal/netsim"
	"mfc/internal/websim"
)

// collectEvents runs a full fake-platform experiment with an observer and
// returns the recorded stream.
func collectEvents(t *testing.T, cfg Config, mutate func(*Coordinator)) ([]Event, *Result, error) {
	t.Helper()
	plat := newFakePlatform(60, func(_, crowd int) time.Duration {
		return time.Duration(crowd) * 4 * time.Millisecond
	})
	var events []Event
	coord := New(plat, cfg, func(ev Event) { events = append(events, ev) })
	if mutate != nil {
		mutate(coord)
	}
	res, err := coord.Run(context.Background(), "fake", Stages, testProfile())
	return events, res, err
}

func TestEventStreamOrdering(t *testing.T) {
	events, res, err := collectEvents(t, testCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events observed")
	}

	// The terminal event arrives exactly once, and last.
	finished := 0
	for i, ev := range events {
		if fin, ok := ev.(ExperimentFinished); ok {
			finished++
			if i != len(events)-1 {
				t.Errorf("ExperimentFinished at position %d of %d, want last", i, len(events))
			}
			if fin.Result != res {
				t.Error("terminal event does not carry the returned Result")
			}
			if fin.Err != "" {
				t.Errorf("terminal event Err = %q on success", fin.Err)
			}
		}
	}
	if finished != 1 {
		t.Fatalf("ExperimentFinished emitted %d times, want exactly 1", finished)
	}

	// Epoch events arrive in epoch order, each following its StageStarted.
	lastEpoch := 0
	stageOpen := false
	for _, ev := range events {
		switch e := ev.(type) {
		case StageStarted:
			stageOpen = true
		case EpochCompleted:
			if !stageOpen {
				t.Fatalf("EpochCompleted %d before any StageStarted", e.Epoch)
			}
			if e.Epoch <= lastEpoch {
				t.Fatalf("epoch %d after epoch %d: not in order", e.Epoch, lastEpoch)
			}
			lastEpoch = e.Epoch
		}
	}
	if lastEpoch == 0 {
		t.Fatal("no EpochCompleted events")
	}

	// The fake target degrades linearly, so the experiment must have
	// entered a check phase at least once.
	sawCheck := false
	for _, ev := range events {
		if _, ok := ev.(CheckPhaseEntered); ok {
			sawCheck = true
		}
	}
	if !sawCheck {
		t.Error("no CheckPhaseEntered event despite a confirmed stop")
	}
}

func TestEventEpochFieldsMatchResult(t *testing.T) {
	events, res, err := collectEvents(t, testCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	byEpoch := map[int]EpochCompleted{}
	for _, ev := range events {
		if e, ok := ev.(EpochCompleted); ok {
			byEpoch[e.Epoch] = e
		}
	}
	for _, sr := range res.Stages {
		for _, er := range sr.Epochs {
			e, ok := byEpoch[er.Index]
			if !ok {
				t.Fatalf("epoch %d missing from the event stream", er.Index)
			}
			if e.Crowd != er.Crowd || e.Kind != er.Kind || e.Scheduled != er.Scheduled ||
				e.Received != er.Received || e.NormQuantile != er.NormQuantile ||
				e.NormMedian != er.NormMedian || e.Exceeded != er.Exceeded {
				t.Errorf("epoch %d: event %+v does not match result %+v", er.Index, e, er)
			}
			if e.Stage != sr.Stage {
				t.Errorf("epoch %d: stage %v, want %v", er.Index, e.Stage, sr.Stage)
			}
		}
	}
}

func TestCancelAbortsAtEpochBoundary(t *testing.T) {
	plat := newFakePlatform(60, func(_, crowd int) time.Duration { return 0 })
	ctx, cancel := context.WithCancel(context.Background())
	var epochs, finished int
	coord := New(plat, testCfg(), func(ev Event) {
		switch ev.(type) {
		case EpochCompleted:
			epochs++
			if epochs == 2 {
				cancel()
			}
		case ExperimentFinished:
			finished++
		}
	})
	res, err := coord.Run(ctx, "fake", Stages, testProfile())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled run must return the partial result")
	}
	if len(res.Stages) != 1 {
		t.Fatalf("stages after cancel = %d, want 1 (later stages must not run)", len(res.Stages))
	}
	sr := res.Stages[0]
	if sr.Verdict != VerdictAborted {
		t.Errorf("verdict = %v, want Aborted", sr.Verdict)
	}
	if len(sr.Epochs) != 2 {
		t.Errorf("epochs recorded = %d, want 2 (abort at the boundary)", len(sr.Epochs))
	}
	if finished != 1 {
		t.Errorf("ExperimentFinished emitted %d times on abort, want 1", finished)
	}
}

func TestCancelSingleStage(t *testing.T) {
	plat := newFakePlatform(60, func(_, crowd int) time.Duration { return 0 })
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the run even starts
	coord := New(plat, testCfg(), nil)
	res, err := coord.Run(ctx, "fake", []Stage{StageBase}, testProfile())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Stages) != 1 || res.Stages[0].Verdict != VerdictAborted {
		t.Fatalf("result = %+v, want one aborted stage", res)
	}
	if len(res.Stages[0].Epochs) != 0 {
		t.Errorf("pre-canceled run still ran %d epochs", len(res.Stages[0].Epochs))
	}
}

// TestCancelSimulatedNoLeaks cancels a simulated run mid-stage and checks
// that the simulation drains: every process goroutine runs to its end
// even when the coordinator returns early. Run under
// -race by `make race`.
func TestCancelSimulatedNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	env := netsim.NewEnv(4)
	site, err := content.NewSite("s", "/index.html", []content.Object{
		{URL: "/index.html", Kind: content.KindText, Size: 2048},
	})
	if err != nil {
		t.Fatal(err)
	}
	server := websim.NewServer(env, websim.Config{
		AccessBandwidth: 1.25e9, Workers: 2048, Backlog: 2048, Cores: 8,
		ParseCPU: 100 * time.Microsecond,
	}, site)
	plat := NewSimPlatform(env, server, PlanetLabSpecs(env, 60))
	prof := site.Profile(content.CrawlConfig{})
	cfg := DefaultConfig()
	cfg.MinClients = 50
	cfg.MaxCrowd = 50
	cfg.Threshold = time.Hour // would ramp forever without the cancel

	ctx, cancel := context.WithCancel(context.Background())
	var sr *StageResult
	epochs := 0
	env.Go("coordinator", func(p *netsim.Proc) {
		plat.Bind(p)
		coord := New(plat, cfg, func(ev Event) {
			if _, ok := ev.(EpochCompleted); ok {
				epochs++
				if epochs == 3 {
					cancel()
				}
			}
		})
		if err := coord.register(); err != nil {
			panic(err)
		}
		sr = stageOf(ctx, coord, StageBase, prof)
	})
	env.Run(0)

	if sr == nil || sr.Verdict != VerdictAborted {
		t.Fatalf("verdict = %v, want Aborted", sr)
	}
	if len(sr.Epochs) != 3 {
		t.Errorf("epochs = %d, want 3", len(sr.Epochs))
	}
	// Every process goroutine ends with its function, so the goroutine
	// count must return to the pre-simulation baseline even though the
	// coordinator bailed out mid-stage.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked by the aborted simulation: %d before, %d after", before, after)
	}
}

func TestLogObserverRendersLegacyLines(t *testing.T) {
	var lines []string
	logf := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	plat := newFakePlatform(60, func(_, crowd int) time.Duration {
		return time.Duration(crowd) * 4 * time.Millisecond
	})
	coord := New(plat, testCfg(), LogObserver(logf))
	if _, err := coord.Run(context.Background(), "fake", Stages, testProfile()); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "epoch") || !strings.Contains(joined, "crowd=") {
		t.Errorf("legacy epoch lines missing:\n%s", joined)
	}
	if !strings.Contains(joined, "entering check phase") {
		t.Errorf("legacy check-phase line missing:\n%s", joined)
	}
}
