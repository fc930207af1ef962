package netsim

import (
	"fmt"
	"testing"
	"time"
)

// Fault-hook semantics: SetDown / SetCapacityFactor / SetLoss reshape the
// waterfill mid-transfer with exact fluid accounting, and a link that never
// sees a hook keeps its pre-hook float behavior bit for bit.

func TestSetDownStallsAndResumes(t *testing.T) {
	env := NewEnv(1)
	l := env.NewLink("up", 1000)
	var done time.Duration
	env.Go("x", func(p *Proc) {
		l.Transfer(p, 1000, 0)
		done = p.Now()
	})
	// Down for exactly one second in the middle: 0.5s of progress, a 1s
	// stall, then the remaining 500 bytes -> completion at 2s.
	env.GoAfter("flap", 500*time.Millisecond, func(p *Proc) {
		l.SetDown(true)
		if !l.Down() {
			t.Error("Down() = false right after SetDown(true)")
		}
		p.Sleep(time.Second)
		l.SetDown(false)
	})
	env.Run(0)
	if want := 2 * time.Second; absDur(done-want) > 2*time.Millisecond {
		t.Errorf("done = %v, want ~%v", done, want)
	}
	if got := l.BytesSent(); got < 999.9 || got > 1000.1 {
		t.Errorf("BytesSent = %v, want 1000", got)
	}
}

func TestDownFlowHitsDeadline(t *testing.T) {
	env := NewEnv(1)
	l := env.NewLink("up", 1000)
	l.SetDown(true)
	var ok bool
	var at time.Duration
	env.Spawn("x", steps(
		func(p *Proc) bool { return l.BeginTransferTimeout(p, 10, 0, 300*time.Millisecond) },
		then(func(p *Proc) { ok, at = p.OK(), p.Now() }),
	))
	env.Run(0)
	if ok {
		t.Error("transfer on a down link succeeded; want deadline abort")
	}
	if at != 300*time.Millisecond {
		t.Errorf("aborted at %v, want 300ms", at)
	}
	if l.Active() != 0 {
		t.Errorf("Active = %d after abort, want 0", l.Active())
	}
}

func TestCapacityStepMidTransfer(t *testing.T) {
	env := NewEnv(1)
	l := env.NewLink("up", 1000)
	var done time.Duration
	env.Go("x", func(p *Proc) {
		l.Transfer(p, 1000, 0)
		done = p.Now()
	})
	// Halve capacity at 0.5s: 500 bytes down, 500 left at 500 B/s -> 1.5s.
	env.GoAfter("step", 500*time.Millisecond, func(p *Proc) {
		l.SetCapacityFactor(0.5)
	})
	env.Run(0)
	if want := 1500 * time.Millisecond; absDur(done-want) > 2*time.Millisecond {
		t.Errorf("done = %v, want ~%v", done, want)
	}
	if got := l.CapacityFactor(); got != 0.5 {
		t.Errorf("CapacityFactor = %v, want 0.5", got)
	}
	l.SetCapacityFactor(0) // <= 0 resets to the clean factor
	if got := l.CapacityFactor(); got != 1 {
		t.Errorf("CapacityFactor after reset = %v, want 1", got)
	}
}

func TestSustainedLossScalesGoodput(t *testing.T) {
	env := NewEnv(1)
	l := env.NewLink("up", 1000)
	l.SetLoss(0.5)
	var done time.Duration
	env.Go("x", func(p *Proc) {
		l.Transfer(p, 1000, 0)
		done = p.Now()
	})
	env.Run(0)
	// Deliverable capacity is 500 B/s -> 2s for 1000 bytes.
	if want := 2 * time.Second; absDur(done-want) > 2*time.Millisecond {
		t.Errorf("done = %v, want ~%v", done, want)
	}
}

func TestLossClampAndReset(t *testing.T) {
	env := NewEnv(1)
	l := env.NewLink("up", 1000)
	l.SetLoss(1.5)
	if got := l.Loss(); got != 0.99 {
		t.Errorf("Loss after SetLoss(1.5) = %v, want clamp to 0.99", got)
	}
	l.SetLoss(-1)
	if got := l.Loss(); got != 0 {
		t.Errorf("Loss after SetLoss(-1) = %v, want 0", got)
	}
}

func TestEffectiveCapacityComposes(t *testing.T) {
	env := NewEnv(1)
	l := env.NewLink("up", 1000)
	// Untouched hooks must return the configured capacity EXACTLY — the
	// zero-intensity determinism guarantee rests on skipping the multiplies.
	if got := l.effectiveCapacity(); got != 1000 {
		t.Fatalf("clean effectiveCapacity = %v, want exactly 1000", got)
	}
	l.SetCapacityFactor(0.5)
	l.SetLoss(0.2)
	if got, want := l.effectiveCapacity(), 1000*0.5*0.8; absFloat(got-want) > 1e-9 {
		t.Errorf("effectiveCapacity = %v, want %v", got, want)
	}
	l.SetDown(true)
	if got := l.effectiveCapacity(); got != 0 {
		t.Errorf("down effectiveCapacity = %v, want 0", got)
	}
	l.SetDown(false)
	l.SetCapacityFactor(1) // explicit 1 also skips the multiply
	l.SetLoss(0)
	if got := l.effectiveCapacity(); got != 1000 {
		t.Errorf("restored effectiveCapacity = %v, want exactly 1000", got)
	}
	env.Run(0)
}

func TestEnvAtSchedulesAbsoluteInstant(t *testing.T) {
	env := NewEnv(1)
	var fired []time.Duration
	// Scheduled up front and rescheduled from a later instant: At is always
	// absolute simulated time, regardless of the current clock.
	env.At(300*time.Millisecond, func() {
		fired = append(fired, env.Now())
		env.At(700*time.Millisecond, func() {
			fired = append(fired, env.Now())
		})
	})
	env.Run(0)
	want := []time.Duration{300 * time.Millisecond, 700 * time.Millisecond}
	if len(fired) != len(want) {
		t.Fatalf("fired %d callbacks, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("callback %d fired at %v, want %v", i, fired[i], want[i])
		}
	}
}

func TestCanceledAtDoesNotExtendClock(t *testing.T) {
	env := NewEnv(1)
	env.Go("x", func(p *Proc) { p.Sleep(100 * time.Millisecond) })
	tm := env.At(time.Hour, func() { t.Error("canceled timer fired") })
	tm.Cancel()
	env.Run(0)
	// The canceled entry is recycled without advancing the clock, so the
	// run ends when real work does — chaos controllers rely on this to
	// Stop() without dragging the experiment out to the last fault trigger.
	if got := env.Now(); got != 100*time.Millisecond {
		t.Errorf("Now after run = %v, want 100ms (canceled timer extended the clock)", got)
	}
}

// Faults injected mid-run: a capacity step, a flap and a loss burst must
// leave the completion trace equal to its pin.
func TestDifferentialFaultSequence(t *testing.T) {
	checkTrace(t, "faults", 5, func(env *Env, trace *[]string) {
		link := env.NewLink("l", 2000)
		for i := 0; i < 6; i++ {
			i := i
			env.GoAfter(fmt.Sprintf("f%d", i), time.Duration(i*50)*time.Millisecond, func(p *Proc) {
				link.Transfer(p, float64(500*(i+1)), 0)
				logf(trace, "f%d done at %v", i, p.Now())
			})
		}
		env.At(200*time.Millisecond, func() { link.SetCapacityFactor(0.25) })
		env.At(400*time.Millisecond, func() { link.SetDown(true) })
		env.At(600*time.Millisecond, func() { link.SetDown(false) })
		env.At(800*time.Millisecond, func() { link.SetLoss(0.3) })
		env.At(1200*time.Millisecond, func() {
			link.SetCapacityFactor(0)
			link.SetLoss(0)
		})
		env.Run(0)
		logf(trace, "bytes=%.6f completed=%d", link.BytesSent(), link.FlowsCompleted())
	})
}

func absFloat(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
