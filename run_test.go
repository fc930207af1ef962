package mfc

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// qtnpTarget is the standard deterministic simulated target the facade
// tests run against.
func qtnpTarget() SimTarget {
	return SimTarget{Server: PresetQTNP(), Site: PresetQTSite(7), Clients: 65, Seed: 42}
}

// TestRunEventStreamOrdering runs a full simulated experiment through
// mfc.Run and checks the event contract end to end: epoch events arrive in
// epoch order, and the terminal ExperimentFinished arrives exactly once,
// last, carrying the returned Result.
func TestRunEventStreamOrdering(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCrowd = 30
	var events []Event
	run, err := Run(context.Background(), qtnpTarget(), cfg,
		WithObserver(func(ev Event) { events = append(events, ev) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events delivered")
	}

	finished := 0
	lastEpoch := 0
	for i, ev := range events {
		switch e := ev.(type) {
		case EpochCompleted:
			if e.Epoch <= lastEpoch {
				t.Fatalf("epoch %d delivered after epoch %d", e.Epoch, lastEpoch)
			}
			lastEpoch = e.Epoch
		case ExperimentFinished:
			finished++
			if i != len(events)-1 {
				t.Errorf("ExperimentFinished at %d of %d, want last", i, len(events))
			}
			if e.Result != run.Result {
				t.Error("terminal event carries a different Result")
			}
		}
	}
	if finished != 1 {
		t.Fatalf("ExperimentFinished delivered %d times, want exactly once", finished)
	}
	if lastEpoch == 0 {
		t.Fatal("no EpochCompleted events")
	}
}

// TestRunCancellation cancels a simulated run mid-stage from the observer
// and checks the contract: Run returns the partial Session plus ctx's
// error, the interrupted stage is VerdictAborted, later stages never run,
// and the netsim kernel leaks no goroutines. CI runs this under -race via
// the core-level twin (TestCancelSimulatedNoLeaks).
func TestRunCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	cfg := DefaultConfig()
	cfg.MaxCrowd = 50
	cfg.Threshold = time.Hour // would ramp all stages without the cancel
	ctx, cancel := context.WithCancel(context.Background())
	epochs := 0
	run, err := Run(ctx, qtnpTarget(), cfg, WithObserver(func(ev Event) {
		if _, ok := ev.(EpochCompleted); ok {
			epochs++
			if epochs == 2 {
				cancel()
			}
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if run == nil || run.Result == nil {
		t.Fatal("canceled Run must return the partial Session")
	}
	if len(run.Result.Stages) != 1 {
		t.Fatalf("stages = %d, want 1 (later stages must not run)", len(run.Result.Stages))
	}
	sr := run.Result.Stages[0]
	if sr.Verdict != VerdictAborted {
		t.Errorf("verdict = %v, want Aborted", sr.Verdict)
	}
	if len(sr.Epochs) != 2 {
		t.Errorf("epochs = %d, want 2 (cancel lands at the epoch boundary)", len(sr.Epochs))
	}

	// The aborted simulation must drain completely: every process
	// goroutine runs to its end.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after the aborted run", before, after)
	}
}

// TestRunCanceledBeforeProfiling pins what a context canceled before Run
// starts does to a simulated target: the profiling stage fails, and Run
// returns no Session.
func TestRunCanceledBeforeProfiling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run, err := Run(ctx, qtnpTarget(), DefaultConfig())
	if run != nil {
		t.Errorf("Session = %+v, want nil", run)
	}
	if !errors.Is(err, context.Canceled) || err.Error() != "mfc: profiling target: context canceled" {
		t.Fatalf("err = %v, want mfc: profiling target: context canceled", err)
	}
}

// TestRunSingleStageResultShape: WithStage produces a one-stage Result
// labeled with the target host.
func TestRunSingleStageResultShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCrowd = 20
	run, err := Run(context.Background(), qtnpTarget(), cfg, WithStage(StageSmallQuery))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Result.Stages) != 1 || run.Result.Stages[0].Stage != StageSmallQuery {
		t.Fatalf("stages = %+v, want exactly the requested one", run.Result.Stages)
	}
	if run.Result.Target == "" {
		t.Error("Result.Target not set")
	}
	if run.Server == nil || run.Monitor == nil || run.Profile == nil {
		t.Error("sim handles missing from the Session")
	}
}

// TestSimTargetLeanMode: NoAccessLog and a negative MonitorPeriod switch
// the instrumentation off for campaign-scale runs.
func TestSimTargetLeanMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCrowd = 15
	target := qtnpTarget()
	target.NoAccessLog = true
	target.MonitorPeriod = -1
	run, err := Run(context.Background(), target, cfg, WithStage(StageBase))
	if err != nil {
		t.Fatal(err)
	}
	if run.Monitor != nil {
		t.Error("negative MonitorPeriod still built a monitor")
	}
	if n := len(run.Server.AccessLog()); n != 0 {
		t.Errorf("NoAccessLog still recorded %d arrivals", n)
	}
	// Lean mode must not change the measurement itself.
	full, err := Run(context.Background(), qtnpTarget(), cfg, WithStage(StageBase))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run.Result, full.Result) {
		t.Error("lean instrumentation changed the measured result")
	}
}
